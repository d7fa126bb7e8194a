package errbound

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// assertCompareMatchesReference runs the block-skipping kernel and the
// per-element reference over the same inputs (with a non-empty dst
// prefix, which both must preserve) and fails on any difference in the
// returned indices, element count or error.
func assertCompareMatchesReference(t *testing.T, h *Hasher, a, b []byte) {
	t.Helper()
	prefix := []int64{-7}
	got, gotN, gotErr := h.CompareSlices(append([]int64(nil), prefix...), a, b)
	want, wantN, wantErr := referenceCompareSlices(h, append([]int64(nil), prefix...), a, b)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%v eps=%g len=%d: error %v, reference error %v", h.DType(), h.Epsilon(), len(a), gotErr, wantErr)
	}
	if gotN != wantN || !reflect.DeepEqual(got, want) {
		t.Fatalf("%v eps=%g len=%d: got %d elements %v, reference %d elements %v",
			h.DType(), h.Epsilon(), len(a), gotN, got, wantN, want)
	}
}

// putElem writes v as element i of a raw dtype buffer.
func putElem(buf []byte, dtype DType, i int, v float64) {
	if dtype == Float32 {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(float32(v)))
		return
	}
	binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
}

// putBits writes raw bits (a NaN payload, a signed zero) as element i.
func putBits(buf []byte, dtype DType, i int, bits uint64) {
	if dtype == Float32 {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(bits))
		return
	}
	binary.LittleEndian.PutUint64(buf[i*8:], bits)
}

// TestCompareSlicesMatchesReference is the kernel equivalence table: the
// bit-identity block skip must return exactly the reference loop's
// indices and count over special values, block-boundary differences and
// lengths that are not a multiple of the block.
func TestCompareSlicesMatchesReference(t *testing.T) {
	type edit struct {
		i    int
		bits uint64 // raw bits written into b (and a when both is set)
		val  float64
		raw  bool
		both bool
	}
	for _, dtype := range []DType{Float32, Float64} {
		esz := dtype.Size()
		per := cmpBlock / esz // elements per block
		nanA, nanB, negZero := uint64(0x7ff8000000000001), uint64(0x7ff8000000000002), uint64(1)<<63
		if dtype == Float32 {
			nanA, nanB, negZero = 0x7fc00001, 0x7fc00002, 1<<31
		}
		tiny := math.SmallestNonzeroFloat64
		if dtype == Float32 {
			tiny = float64(math.SmallestNonzeroFloat32)
		}
		cases := []struct {
			name  string
			elems int
			eps   float64
			edits []edit
		}{
			{name: "identical", elems: 3 * per, eps: 1e-3},
			{name: "empty", elems: 0, eps: 1e-3},
			{name: "first-element", elems: 2 * per, eps: 1e-3, edits: []edit{{i: 0, val: 5}}},
			{name: "last-of-block", elems: 2 * per, eps: 1e-3, edits: []edit{{i: per - 1, val: 5}}},
			{name: "first-of-next-block", elems: 2 * per, eps: 1e-3, edits: []edit{{i: per, val: 5}}},
			{name: "both-sides-of-boundary", elems: 3 * per, eps: 1e-3, edits: []edit{{i: per - 1, val: 5}, {i: per, val: -5}, {i: 2*per - 1, val: 9}}},
			{name: "last-element", elems: 3 * per, eps: 1e-3, edits: []edit{{i: 3*per - 1, val: 5}}},
			{name: "short-tail", elems: 2*per + 5, eps: 1e-3, edits: []edit{{i: 2*per + 4, val: 5}, {i: 2 * per, val: 5}}},
			{name: "shorter-than-block", elems: 3, eps: 1e-3, edits: []edit{{i: 1, val: 5}}},
			{name: "one-past-block", elems: per + 1, eps: 1e-3, edits: []edit{{i: per, val: 5}}},
			{name: "within-eps", elems: per + 7, eps: 1e-3, edits: []edit{{i: 3, val: 0.0004}, {i: per + 2, val: -0.0009}}},
			{name: "nan-payloads", elems: per + 3, eps: 1e-3, edits: []edit{{i: 1, raw: true, bits: nanA}, {i: per + 1, raw: true, bits: nanB, both: true}}},
			{name: "nan-vs-nan-payload", elems: per, eps: 1e-3, edits: []edit{{i: 2, raw: true, bits: nanA, both: true}, {i: 2, raw: true, bits: nanB}}},
			{name: "signed-zero", elems: per, eps: 1e-3, edits: []edit{{i: 4, raw: true, bits: 0, both: true}, {i: 4, raw: true, bits: negZero}}},
			{name: "inf", elems: 2 * per, eps: 1e-3, edits: []edit{{i: 0, val: math.Inf(1)}, {i: per, val: math.Inf(-1), both: true}, {i: per + 1, val: math.Inf(1), both: true}, {i: per + 1, val: math.Inf(-1)}}},
			{name: "subnormal", elems: per, eps: tiny, edits: []edit{{i: 5, val: 3 * tiny}, {i: 6, val: 3 * tiny, both: true}, {i: 7, val: tiny}}},
			{name: "subnormal-eps-within", elems: per, eps: 4 * tiny, edits: []edit{{i: 5, val: tiny}}},
		}
		for _, tc := range cases {
			t.Run(dtype.String()+"/"+tc.name, func(t *testing.T) {
				h, err := NewHasher(dtype, tc.eps)
				if err != nil {
					t.Fatal(err)
				}
				a := make([]byte, tc.elems*esz)
				for i := 0; i < tc.elems; i++ {
					putElem(a, dtype, i, float64(i%17)*0.25)
				}
				for _, e := range tc.edits {
					if e.both {
						if e.raw {
							putBits(a, dtype, e.i, e.bits)
						} else {
							putElem(a, dtype, e.i, e.val)
						}
					}
				}
				b := append([]byte(nil), a...)
				for _, e := range tc.edits {
					if e.both {
						continue
					}
					if e.raw {
						putBits(b, dtype, e.i, e.bits)
					} else {
						putElem(b, dtype, e.i, e.val)
					}
				}
				assertCompareMatchesReference(t, h, a, b)
				assertCompareMatchesReference(t, h, b, a)
			})
		}
	}
}

// TestCompareSlicesRandomMatchesReference sweeps random lengths, ε and
// sparse bit flips (including flips into exponents, which produce NaN,
// infinities and subnormals) against the reference.
func TestCompareSlicesRandomMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		dtype := Float32
		if iter%2 == 1 {
			dtype = Float64
		}
		h, err := NewHasher(dtype, math.Pow(10, -float64(rng.Intn(9))))
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(5*cmpBlock/dtype.Size()) + 1
		a := make([]byte, n*dtype.Size())
		for i := 0; i < n; i++ {
			putElem(a, dtype, i, rng.NormFloat64())
		}
		b := append([]byte(nil), a...)
		for k := rng.Intn(6); k > 0; k-- {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		assertCompareMatchesReference(t, h, a, b)
	}
}

// FuzzCompareSlices checks the block-skipping kernel against the
// per-element reference on arbitrary bytes: b is a with delta XORed over
// its front, so most of b stays bit-identical to a, as in stage 2.
func FuzzCompareSlices(f *testing.F) {
	f.Add(make([]byte, 3*cmpBlock+12), []byte{0, 0, 1}, false, uint64(0))
	f.Add(make([]byte, 2*cmpBlock), []byte{0x7f, 0xf8}, true, math.Float64bits(1e-6))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0xff}, true, math.Float64bits(math.SmallestNonzeroFloat64))
	f.Fuzz(func(t *testing.T, a, delta []byte, wide bool, epsBits uint64) {
		dtype := Float32
		if wide {
			dtype = Float64
		}
		eps := math.Abs(math.Float64frombits(epsBits))
		if !(eps > 0) || math.IsInf(eps, 0) {
			eps = 1e-3
		}
		h, err := NewHasher(dtype, eps)
		if err != nil {
			t.Fatal(err)
		}
		a = a[:len(a)/dtype.Size()*dtype.Size()]
		b := append([]byte(nil), a...)
		for i := 0; i < len(delta) && i < len(b); i++ {
			// Spread the delta over the buffer so flips land in late blocks.
			b[(i*cmpBlock/2+i)%len(b)] ^= delta[i]
		}
		assertCompareMatchesReference(t, h, a, b)
	})
}
