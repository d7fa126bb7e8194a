package errbound

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/murmur3"
)

// benchChunk builds a deterministic 64 KiB chunk of the given dtype.
func benchChunk(b *testing.B, dtype DType) []byte {
	b.Helper()
	const n = 64 << 10 / 8
	out := make([]byte, 0, n*dtype.Size())
	for i := 0; i < n; i++ {
		v := math.Sin(float64(i) * 0.001)
		if dtype == Float32 {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v)))
		} else {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// BenchmarkHashChunk measures the fused quantize+hash leaf kernel, the
// comparator's hot path (bytes/sec is the headline kernel metric).
func BenchmarkHashChunk(b *testing.B) {
	for _, dtype := range []DType{Float32, Float64} {
		b.Run(dtype.String(), func(b *testing.B) {
			chunk := benchChunk(b, dtype)
			h, err := NewHasher(dtype, 1e-6)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.HashChunk(chunk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashChunkReference measures the seed two-phase implementation
// (quantize into a scratch buffer, SumDigest per block) that the fused
// kernel replaced — kept runnable so benchstat can track the fused/seed
// ratio.
func BenchmarkHashChunkReference(b *testing.B) {
	for _, dtype := range []DType{Float32, Float64} {
		b.Run(dtype.String(), func(b *testing.B) {
			chunk := benchChunk(b, dtype)
			h, err := NewHasher(dtype, 1e-6)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(chunk)))
			var scratch [blockElems * 8]byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := referenceHashChunkScratch(h, chunk, scratch[:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// compareCases are the stage-2 input shapes of the compare benchmarks:
// b is chunk with the named elements moved. "identical" is a stage-1
// false positive cleared by the bit-identity skip; "one" and "1in1024"
// are the sparse divergence stage 2 usually sees (synth.DefaultPerturb
// moves 1 element in 1024); "dense" moves every element within ε, so
// every block takes the per-element test.
var compareCases = []struct {
	name  string
	every int // move element i when i%every == 0 (0: none)
	first bool
}{
	{name: "identical"},
	{name: "one", first: true},
	{name: "1in1024", every: 1024},
	{name: "dense", every: 1},
}

// movedChunk returns a copy of chunk with the case's elements moved by
// ε/2 (within the bound: the indices returned do not change, only the
// work done to find them).
func movedChunk(chunk []byte, dtype DType, eps float64, every int, first bool) []byte {
	out := append([]byte(nil), chunk...)
	esz := dtype.Size()
	for i := 0; i < len(out)/esz; i++ {
		if !(first && i == 0) && (every == 0 || i%every != 0) {
			continue
		}
		if dtype == Float32 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(out[i*4:]))
			binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v+float32(eps/2)))
		} else {
			v := math.Float64frombits(binary.LittleEndian.Uint64(out[i*8:]))
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v+eps/2))
		}
	}
	return out
}

// BenchmarkCompareSlices measures the element-wise ε-compare kernel
// (stage-2 verification rate, both buffers counted) across the input
// shapes of compareCases.
func BenchmarkCompareSlices(b *testing.B) {
	benchCompare(b, func(h *Hasher, dst []int64, a, c []byte) ([]int64, int, error) {
		return h.CompareSlices(dst, a, c)
	})
}

// BenchmarkCompareSlicesReference measures the per-element loop the
// bit-identity skip replaced, over the same inputs, so benchstat can
// track the ratio (the dense case is the skip's worst case).
func BenchmarkCompareSlicesReference(b *testing.B) {
	benchCompare(b, referenceCompareSlices)
}

func benchCompare(b *testing.B, kernel func(h *Hasher, dst []int64, a, c []byte) ([]int64, int, error)) {
	const eps = 1e-6
	for _, dtype := range []DType{Float32, Float64} {
		chunk := benchChunk(b, dtype)
		h, err := NewHasher(dtype, eps)
		if err != nil {
			b.Fatal(err)
		}
		for _, tc := range compareCases {
			moved := movedChunk(chunk, dtype, eps, tc.every, tc.first)
			b.Run(dtype.String()+"/"+tc.name, func(b *testing.B) {
				b.SetBytes(2 * int64(len(chunk)))
				var dst []int64
				for i := 0; i < b.N; i++ {
					var err error
					if dst, _, err = kernel(h, dst[:0], chunk, moved); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAllClose measures the boolean baseline kernel.
func BenchmarkAllClose(b *testing.B) {
	chunk := benchChunk(b, Float32)
	h, err := NewHasher(Float32, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.AllClose(chunk, chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainBlock isolates the streaming hasher's per-block cost from
// quantization.
func BenchmarkChainBlock(b *testing.B) {
	var c murmur3.Chain
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Block(uint64(i), uint64(i)^0x9e3779b97f4a7c15)
	}
}
