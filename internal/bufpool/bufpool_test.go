package bufpool

import (
	"runtime"
	"sync"
	"testing"
)

func TestGetSizes(t *testing.T) {
	for _, n := range []int{1, 100, 4096, 4097, 64 << 10, 3 << 20, 64 << 20} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len %d", n, len(b))
		}
		if c := cap(b); c < n || c&(c-1) != 0 {
			t.Fatalf("Get(%d): cap %d is not a power-of-two class", n, c)
		}
		Put(b)
	}
	if b := Get(0); b != nil {
		t.Fatalf("Get(0) = %d bytes", len(b))
	}
	if b := Get(64<<20 + 1); len(b) != 64<<20+1 {
		t.Fatalf("oversized Get: len %d", len(b))
	}
}

func TestPutRejectsForeignCapacities(t *testing.T) {
	// Neither panics nor pools a buffer whose capacity is not a class.
	Put(make([]byte, 5000))
	Put(make([]byte, 10))
	Put(nil)
	for i := 0; i < 4; i++ {
		if b := Get(4097); cap(b) != 8192 {
			t.Fatalf("Get(4097) cap %d, want 8192", cap(b))
		}
	}
}

func TestGrow(t *testing.T) {
	b := Grow(nil, 10)
	if len(b) != 10 || cap(b) != 4096 {
		t.Fatalf("Grow(nil, 10): len %d cap %d", len(b), cap(b))
	}
	b = Grow(b, 4000)
	if len(b) != 4000 || cap(b) != 4096 {
		t.Fatalf("Grow within capacity: len %d cap %d", len(b), cap(b))
	}
	b = Grow(b, 5000)
	if len(b) != 5000 || cap(b) != 8192 {
		t.Fatalf("Grow past capacity: len %d cap %d", len(b), cap(b))
	}
	Put(b)
}

func TestReuse(t *testing.T) {
	b := Get(100 << 10)
	b[0] = 42
	Put(b)
	if c := Get(90 << 10); &c[:1][0] != &b[:1][0] {
		t.Fatal("a returned buffer was not reused by the next Get of its class")
	}
}

// TestFreeListBounded checks that a list holds at most keep items and
// drops the rest, and that Get hands items back most recent first.
func TestFreeListBounded(t *testing.T) {
	var l FreeList[int]
	for i := 0; i < keep+5; i++ {
		l.Put(i)
	}
	for i := keep - 1; i >= 0; i-- {
		if x, ok := l.Get(); !ok || x != i {
			t.Fatalf("Get = %d, %v; want %d, true", x, ok, i)
		}
	}
	if x, ok := l.Get(); ok {
		t.Fatalf("list kept %d past its bound of %d", x, keep)
	}
}

func TestDrain(t *testing.T) {
	b := Get(3 << 20)
	b[0] = 42
	Put(b)
	Drain()
	if c := Get(3 << 20); c[0] != 0 {
		t.Fatal("Get after Drain returned a recycled buffer")
	}
}

// TestConcurrentOwnership has goroutines take, stamp, check and return
// buffers of overlapping classes while drains empty the lists: no buffer
// may ever be handed to two holders at once.
func TestConcurrentOwnership(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				n := 4096 << (i % 4)
				b := Get(n)
				stamp := byte(g*31 + i)
				for j := range b {
					b[j] = stamp
				}
				runtime.Gosched()
				for j := range b {
					if b[j] != stamp {
						t.Errorf("goroutine %d: buffer shared with another holder", g)
						return
					}
				}
				Put(b)
				if i%50 == 0 {
					Drain()
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkGetPut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Put(Get(64 << 10))
	}
}
