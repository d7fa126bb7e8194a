package errbound

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/murmur3"
)

// referenceQuantize is the seed Quantize: the NaN/Inf branch cascade
// followed by the ε-grid floor with sentinel clamps. The fused kernels
// must reproduce it bit-for-bit.
func referenceQuantize(x, eps float64) int64 {
	switch {
	case math.IsNaN(x):
		return cellNaN
	case math.IsInf(x, 1):
		return cellPosInf
	case math.IsInf(x, -1):
		return cellNegInf
	}
	q := math.Floor(x / eps)
	if q >= float64(math.MaxInt64-2) {
		return math.MaxInt64 - 2
	}
	if q <= float64(math.MinInt64+2) {
		return math.MinInt64 + 2
	}
	return int64(q)
}

// referenceHashChunkScratch is the seed leaf-hash implementation: per
// element dtype branch, referenceQuantize, serialization into a 16-byte
// scratch buffer, and a full SumDigest seed/finalize round-trip per
// 128-bit block. It is the golden oracle the fused Chain-based kernel is
// equivalence-tested against (and the "before" case of the kernel
// benchmarks).
func referenceHashChunkScratch(h *Hasher, chunk, scratch []byte) (murmur3.Digest, error) {
	esz := h.dtype.Size()
	if len(chunk)%esz != 0 {
		return murmur3.Digest{}, errChunkLen
	}
	n := len(chunk) / esz
	var digest murmur3.Digest
	bi := 0
	for i := 0; i < n; i++ {
		var v float64
		if h.dtype == Float32 {
			v = float64(math.Float32frombits(binary.LittleEndian.Uint32(chunk[i*4:])))
		} else {
			v = math.Float64frombits(binary.LittleEndian.Uint64(chunk[i*8:]))
		}
		cell := referenceQuantize(v, h.eps)
		binary.LittleEndian.PutUint64(scratch[bi*8:], uint64(cell))
		bi++
		if bi == blockElems {
			digest = murmur3.SumDigest(scratch[:blockElems*8], digest)
			bi = 0
		}
	}
	if bi > 0 {
		digest = murmur3.SumDigest(scratch[:bi*8], digest)
	}
	return digest, nil
}

type testingErr string

func (e testingErr) Error() string { return string(e) }

const errChunkLen = testingErr("reference: chunk length not a multiple of element size")

// goldenEpsilons spans the paper's sweep plus denormal-adjacent extremes.
var goldenEpsilons = []float64{1e-3, 1e-5, 1e-7, 1e-12, 0.5, 3.0, 1e300, 1e-300}

// goldenValues mixes finite magnitudes with every special-value class.
var goldenValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.3333333333333333, -12345.6789,
	1e-40, -1e-40, 1e40, -1e40, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	math.MaxFloat32 * 2, // overflows float32 to +Inf on conversion
}

// encodeValues serializes values as raw little-endian elements of dtype.
func encodeValues(dtype DType, values []float64) []byte {
	out := make([]byte, 0, len(values)*dtype.Size())
	for _, v := range values {
		if dtype == Float32 {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v)))
		} else {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// TestGoldenQuantizeEquivalence proves the exponent-bit fast path of
// Quantize is bit-identical to the seed branch cascade over specials and
// a dense value sweep.
func TestGoldenQuantizeEquivalence(t *testing.T) {
	for _, eps := range goldenEpsilons {
		for _, v := range goldenValues {
			if got, want := Quantize(v, eps), referenceQuantize(v, eps); got != want {
				t.Fatalf("Quantize(%g, %g) = %d, want %d", v, eps, got, want)
			}
		}
		for i := -2000; i < 2000; i++ {
			v := float64(i) * 0.37 * eps
			if got, want := Quantize(v, eps), referenceQuantize(v, eps); got != want {
				t.Fatalf("Quantize(%g, %g) = %d, want %d", v, eps, got, want)
			}
		}
	}
}

// TestGoldenHashChunkEquivalence proves the fused quantize+hash kernel is
// bit-identical to the seed scratch-buffer SumDigest chaining across
// dtypes, ε values, special values, and every tail length (odd element
// counts exercise the half-block path).
func TestGoldenHashChunkEquivalence(t *testing.T) {
	for _, dtype := range []DType{Float32, Float64} {
		for _, eps := range goldenEpsilons {
			h, err := NewHasher(dtype, eps)
			if err != nil {
				t.Fatal(err)
			}
			// All prefix lengths of the special-heavy vector: covers empty
			// chunks, single elements, odd tails, and full blocks.
			full := encodeValues(dtype, goldenValues)
			for n := 0; n <= len(goldenValues); n++ {
				chunk := full[:n*dtype.Size()]
				var scratch [blockElems * 8]byte
				want, err := referenceHashChunkScratch(h, chunk, scratch[:])
				if err != nil {
					t.Fatal(err)
				}
				got, err := h.HashChunk(chunk)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%v eps=%g n=%d: fused digest %x != seed %x", dtype, eps, n, got, want)
				}
				gotScratch, err := h.HashChunkScratch(chunk, scratch[:])
				if err != nil {
					t.Fatal(err)
				}
				if gotScratch != want {
					t.Fatalf("%v eps=%g n=%d: HashChunkScratch diverged from seed", dtype, eps, n)
				}
			}
		}
	}
}

// TestQuickHashChunkEquivalence is the property-style version: random
// buffers (random bit patterns, so NaN payloads and denormals appear)
// must hash identically under both implementations.
func TestQuickHashChunkEquivalence(t *testing.T) {
	for _, dtype := range []DType{Float32, Float64} {
		h, err := NewHasher(dtype, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		f := func(raw []byte, epsScale uint8) bool {
			eps := goldenEpsilons[int(epsScale)%len(goldenEpsilons)]
			hh, err := NewHasher(dtype, eps)
			if err != nil {
				return false
			}
			chunk := raw[:len(raw)-len(raw)%dtype.Size()]
			var scratch [blockElems * 8]byte
			want, err1 := referenceHashChunkScratch(hh, chunk, scratch[:])
			got, err2 := hh.HashChunk(chunk)
			return err1 == nil && err2 == nil && got == want
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", h.DType(), err)
		}
	}
}

// TestGoldenChainEquivalence proves murmur3.Chain reproduces the
// SumDigest chaining it replaces, block by block, including the half
// -block tail, from both zero and non-zero seeds.
func TestGoldenChainEquivalence(t *testing.T) {
	words := []uint64{0, 1, ^uint64(0), 0x0123456789abcdef, 0xdeadbeef}
	seeds := []murmur3.Digest{{}, murmur3.SumDigest([]byte("seed"), murmur3.Digest{})}
	for _, seed := range seeds {
		for _, tail := range []bool{false, true} {
			want := seed
			chain := murmur3.NewChain(seed)
			var block [16]byte
			for i, w := range words {
				k2 := w ^ 0x5bf03635
				binary.LittleEndian.PutUint64(block[0:8], w)
				binary.LittleEndian.PutUint64(block[8:16], k2)
				want = murmur3.SumDigest(block[:], want)
				chain.Block(w, k2)
				if chain.Sum() != want {
					t.Fatalf("block %d: chain %x != SumDigest %x", i, chain.Sum(), want)
				}
			}
			if tail {
				binary.LittleEndian.PutUint64(block[0:8], 0x7f7f7f7f7f7f7f7f)
				want = murmur3.SumDigest(block[:8], want)
				chain.BlockTail(0x7f7f7f7f7f7f7f7f)
				if chain.Sum() != want {
					t.Fatalf("tail: chain %x != SumDigest %x", chain.Sum(), want)
				}
			}
		}
	}
}

// TestGoldenCompareEquivalence proves the specialized equality kernels
// agree with the generic Equal across special values.
func TestGoldenCompareEquivalence(t *testing.T) {
	const eps = 1e-6
	for _, a := range goldenValues {
		for _, b := range goldenValues {
			want := Equal(a, b, eps)
			if got := equalF64(math.Float64bits(a), math.Float64bits(b), eps); got != want {
				t.Errorf("equalF64(%g, %g) = %v, want %v", a, b, got, want)
			}
			fa, fb := float32(a), float32(b)
			want32 := Equal(float64(fa), float64(fb), eps)
			if got := equalF32(math.Float32bits(fa), math.Float32bits(fb), eps); got != want32 {
				t.Errorf("equalF32(%g, %g) = %v, want %v", fa, fb, got, want32)
			}
		}
	}
}

// referenceCompareSlices is the per-element CompareSlices loop the
// bit-identity block skip replaced, kept verbatim: every element pair
// takes the ε test. It is the oracle the skipping kernel is
// equivalence-tested and fuzzed against, and the "before" case of the
// compare benchmarks.
func referenceCompareSlices(h *Hasher, dst []int64, a, b []byte) ([]int64, int, error) {
	esz := h.dtype.Size()
	if len(a) != len(b) {
		return dst, 0, testingErr("reference: slice length mismatch")
	}
	if len(a)%esz != 0 {
		return dst, 0, errChunkLen
	}
	n := len(a) / esz
	if h.dtype == Float32 {
		for i := 0; i < n; i++ {
			if !equalF32(binary.LittleEndian.Uint32(a[i*4:]), binary.LittleEndian.Uint32(b[i*4:]), h.eps) {
				dst = append(dst, int64(i))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if !equalF64(binary.LittleEndian.Uint64(a[i*8:]), binary.LittleEndian.Uint64(b[i*8:]), h.eps) {
				dst = append(dst, int64(i))
			}
		}
	}
	return dst, n, nil
}
