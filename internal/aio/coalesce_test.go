package aio

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/pfs"
)

func TestCoalescingFillsBuffersCorrectly(t *testing.T) {
	_, f, data := newFile(t, 1<<20)
	reqs := scatteredReqs(data, 200, 4096, 21)
	c := NewCoalescing(NewUring(64, 2), 8<<10)
	cost, elapsed, err := c.ReadBatch(context.Background(), f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if cost.TotalBytes() == 0 || elapsed <= 0 {
		t.Error("accounting empty")
	}
	if c.Name() != "io_uring+coalesce" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestCoalescingReducesOps(t *testing.T) {
	// Perfectly adjacent chunks must collapse into a single operation.
	_, f, data := newFile(t, 512<<10)
	mk := func() []ReadReq {
		reqs := make([]ReadReq, 64)
		for i := range reqs {
			reqs[i] = ReadReq{Off: int64(i * 4096), Len: 4096, Buf: make([]byte, 4096), Tag: i}
		}
		return reqs
	}
	reqs := mk()
	c := NewCoalescing(NewUring(64, 2), 4096)
	cost, _, err := c.ReadBatch(context.Background(), f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if cost.Ops != 1 {
		t.Errorf("adjacent chunks used %d ops, want 1", cost.Ops)
	}

	// The same batch uncoalesced pays one op per chunk.
	_, f2, data2 := newFile(t, 512<<10)
	reqs2 := mk()
	cost2, _, err := NewUring(64, 2).ReadBatch(context.Background(), f2, reqs2)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data2, reqs2)
	if cost2.Ops != 64 {
		t.Errorf("uncoalesced ops = %d, want 64", cost2.Ops)
	}
}

func TestCoalescingRespectsGapLimit(t *testing.T) {
	_, f, data := newFile(t, 1<<20)
	// Two clusters far apart: must remain two operations.
	reqs := []ReadReq{
		{Off: 0, Len: 4096, Buf: make([]byte, 4096), Tag: 0},
		{Off: 4096, Len: 4096, Buf: make([]byte, 4096), Tag: 1},
		{Off: 512 << 10, Len: 4096, Buf: make([]byte, 4096), Tag: 2},
	}
	c := NewCoalescing(NewUring(8, 1), 4096)
	cost, _, err := c.ReadBatch(context.Background(), f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if cost.Ops != 2 {
		t.Errorf("ops = %d, want 2 (gap not bridged)", cost.Ops)
	}
}

func TestCoalescingBridgesSmallGaps(t *testing.T) {
	_, f, data := newFile(t, 256<<10)
	// 4 KiB chunks every 8 KiB: 4 KiB holes, bridged by MaxGap 8 KiB.
	reqs := make([]ReadReq, 8)
	for i := range reqs {
		reqs[i] = ReadReq{Off: int64(i * 8192), Len: 4096, Buf: make([]byte, 4096), Tag: i}
	}
	c := NewCoalescing(NewUring(8, 1), 8192)
	cost, _, err := c.ReadBatch(context.Background(), f, reqs)
	if err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if cost.Ops != 1 {
		t.Errorf("ops = %d, want 1 (gaps bridged)", cost.Ops)
	}
	// The bridged gaps cost extra bytes.
	want := int64(7*8192 + 4096)
	if cost.TotalBytes() != want {
		t.Errorf("bytes = %d, want %d including gaps", cost.TotalBytes(), want)
	}
}

func TestCoalescingOverlappingRequests(t *testing.T) {
	_, f, data := newFile(t, 64<<10)
	reqs := []ReadReq{
		{Off: 0, Len: 8192, Buf: make([]byte, 8192), Tag: 0},
		{Off: 4096, Len: 8192, Buf: make([]byte, 8192), Tag: 1}, // overlaps 0
		{Off: 100, Len: 50, Buf: make([]byte, 50), Tag: 2},      // inside 0
	}
	c := NewCoalescing(Mmap{}, 0)
	if _, _, err := c.ReadBatch(context.Background(), f, reqs); err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
}

func TestCoalescingSmallBatchPassThrough(t *testing.T) {
	_, f, data := newFile(t, 16<<10)
	reqs := []ReadReq{{Off: 0, Len: 1024, Buf: make([]byte, 1024), Tag: 0}}
	c := NewCoalescing(nil, 0) // defaults
	if _, _, err := c.ReadBatch(context.Background(), f, reqs); err != nil {
		t.Fatal(err)
	}
	verifyFilled(t, data, reqs)
	if _, _, err := c.ReadBatch(context.Background(), f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescingRejectsBadRequests(t *testing.T) {
	_, f, _ := newFile(t, 4096)
	bad := []ReadReq{
		{Off: 0, Len: 16, Buf: make([]byte, 16)},
		{Off: -5, Len: 16, Buf: make([]byte, 16)},
	}
	if _, _, err := (NewCoalescing(nil, 0)).ReadBatch(context.Background(), f, bad); err == nil {
		t.Error("bad request accepted")
	}
}

func TestQuickCoalescingEquivalence(t *testing.T) {
	_, f, data := newFile(t, 256<<10)
	c := NewCoalescing(NewUring(32, 2), 4096)
	u := NewUring(32, 2)
	iter := 0
	prop := func(seed int64, n uint8) bool {
		iter++
		count := int(n%32) + 1
		a := scatteredReqs(data, count, 1024, seed)
		b := make([]ReadReq, len(a))
		for i := range a {
			b[i] = a[i]
			b[i].Buf = make([]byte, a[i].Len)
		}
		if _, _, err := c.ReadBatch(context.Background(), f, a); err != nil {
			return false
		}
		if _, _, err := u.ReadBatch(context.Background(), f, b); err != nil {
			return false
		}
		for i := range a {
			if !bytes.Equal(a[i].Buf, b[i].Buf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// recordingBackend passes batches to an inner backend and keeps the
// merged requests it was handed, so tests can see which runs a
// Coalescing read in place.
type recordingBackend struct {
	inner Backend
	seen  []ReadReq
}

func (r *recordingBackend) Name() string { return r.inner.Name() }

func (r *recordingBackend) ReadBatch(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	r.seen = append(r.seen, reqs...)
	return r.inner.ReadBatch(ctx, f, reqs)
}

func (r *recordingBackend) ReadBatchPair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error) {
	r.seen = append(append(r.seen, reqsA...), reqsB...)
	return r.inner.(PairReader).ReadBatchPair(ctx, fA, fB, reqsA, reqsB)
}

// layoutCase builds one batch shape over a fresh backing buffer and
// reports whether its first merged run may be read in place.
type layoutCase struct {
	name   string
	build  func() (reqs []ReadReq, backing []byte)
	direct bool
}

// backToBack lays requests of n bytes at the given file offsets into one
// backing buffer, in the order given.
func backToBack(n int, offs ...int64) ([]ReadReq, []byte) {
	backing := make([]byte, n*len(offs))
	reqs := make([]ReadReq, len(offs))
	for i, off := range offs {
		reqs[i] = ReadReq{Off: off, Len: n, Buf: backing[i*n : (i+1)*n], Tag: i}
	}
	return reqs, backing
}

var layoutCases = []layoutCase{
	{name: "direct", direct: true, build: func() ([]ReadReq, []byte) {
		return backToBack(4096, 8192, 12288, 16384, 20480)
	}},
	{name: "direct-request-order-shuffled", direct: true, build: func() ([]ReadReq, []byte) {
		reqs, backing := backToBack(4096, 8192, 12288, 16384, 20480)
		reqs[0], reqs[3] = reqs[3], reqs[0]
		reqs[1], reqs[2] = reqs[2], reqs[1]
		return reqs, backing
	}},
	{name: "out-of-order-buffers", build: func() ([]ReadReq, []byte) {
		// Gap-free in the file, but each buffer sits before its
		// predecessor's in memory.
		return backToBack(4096, 20480, 16384, 12288, 8192)
	}},
	{name: "non-adjacent-buffers", build: func() ([]ReadReq, []byte) {
		reqs := make([]ReadReq, 4)
		for i := range reqs {
			reqs[i] = ReadReq{Off: int64(i) * 4096, Len: 4096, Buf: make([]byte, 4096), Tag: i}
		}
		return reqs, nil
	}},
	{name: "gapped", build: func() ([]ReadReq, []byte) {
		return backToBack(4096, 0, 5120, 10240, 15360)
	}},
	{name: "duplicate-offset", build: func() ([]ReadReq, []byte) {
		return backToBack(4096, 4096, 4096, 8192)
	}},
	{name: "overlapping", build: func() ([]ReadReq, []byte) {
		return backToBack(4096, 0, 2048, 6144)
	}},
	{name: "capacity-capped-head", build: func() ([]ReadReq, []byte) {
		// Adjacent, but the head's capacity stops short of the run: the
		// run must not be read through it.
		reqs, backing := backToBack(4096, 0, 4096, 8192)
		reqs[0].Buf = backing[0:4096:4097]
		return reqs, backing
	}},
	{name: "direct-then-gapped-then-single", direct: true, build: func() ([]ReadReq, []byte) {
		return backToBack(4096, 0, 4096, 8192, 64<<10, 69<<10, 300<<10)
	}},
}

// readSerial reads every request's window with plain ReadAt calls: the
// oracle each coalesced layout must match byte for byte.
func readSerial(t *testing.T, f *pfs.File, reqs []ReadReq) [][]byte {
	t.Helper()
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = make([]byte, r.Len)
		if n, _, err := f.ReadAt(out[i], r.Off); err != nil || n != r.Len {
			t.Fatalf("ReadAt(%d, %d): n=%d err=%v", r.Off, r.Len, n, err)
		}
	}
	return out
}

func checkLayout(t *testing.T, tc layoutCase, side string, reqs []ReadReq, backing []byte, want [][]byte, seen []ReadReq) {
	t.Helper()
	for i, r := range reqs {
		if !bytes.Equal(r.Buf[:r.Len], want[i]) {
			t.Fatalf("%s request %d (off %d): bytes differ from serial ReadAt", side, i, r.Off)
		}
	}
	if backing == nil {
		return
	}
	inPlace := false
	for _, m := range seen {
		if &m.Buf[0] == &backing[0] {
			inPlace = true
		}
	}
	if inPlace != tc.direct {
		t.Fatalf("%s: first run read in place = %v, want %v", side, inPlace, tc.direct)
	}
}

// TestCoalescingLayouts drives every request layout through ReadBatch and
// ReadBatchPair and checks the bytes against serial ReadAt — in-place
// runs, gapped runs through recycled buffers (twice, so the second pass
// reads into buffers holding the first pass's bytes), and layouts that
// must fall back to the copy.
func TestCoalescingLayouts(t *testing.T) {
	_, fA, fB, _, _ := newPairFiles(t, 1<<20)
	u := NewUring(16, 2)
	defer u.Close()
	for _, tc := range layoutCases {
		t.Run(tc.name, func(t *testing.T) {
			for pass := 0; pass < 2; pass++ {
				rec := &recordingBackend{inner: u}
				c := NewCoalescing(rec, 2048)
				reqs, backing := tc.build()
				want := readSerial(t, fA, reqs)
				if _, _, err := c.ReadBatch(context.Background(), fA, reqs); err != nil {
					t.Fatal(err)
				}
				checkLayout(t, tc, "ReadBatch", reqs, backing, want, rec.seen)

				rec.seen = nil
				reqsA, backingA := tc.build()
				reqsB, backingB := tc.build()
				wantA, wantB := readSerial(t, fA, reqsA), readSerial(t, fB, reqsB)
				if _, _, err := c.ReadBatchPair(context.Background(), fA, fB, reqsA, reqsB); err != nil {
					t.Fatal(err)
				}
				checkLayout(t, tc, "ReadBatchPair A", reqsA, backingA, wantA, rec.seen)
				checkLayout(t, tc, "ReadBatchPair B", reqsB, backingB, wantB, rec.seen)
			}
		})
	}
}
