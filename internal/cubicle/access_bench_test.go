// Wall-clock microbenchmarks for the checked accessors (resolveSpan plus
// one address-space call). The virtual clock is untouched by an allowed
// access, so these are simulator-speed numbers, not modelled CubicleOS
// numbers.
package cubicle

import (
	"testing"

	"cubicleos/internal/vm"
)

// benchWorld boots the FOO/BAR/LIBC pair in full-isolation mode with a
// 4-page buffer in FOO's heap.
func benchWorld(b *testing.B) (*testSystem, vm.Addr) {
	b.Helper()
	ts := bootPair(b, ModeFull)
	buf := ts.heapIn(b, "FOO", 4*vm.PageSize)
	return ts, buf
}

// BenchmarkFastpathLoadByte is the per-byte checked read loop — the
// hottest pattern in ulibc-style code before the view migration.
func BenchmarkFastpathLoadByte(b *testing.B) {
	ts, buf := benchWorld(b)
	ts.enter(b, "FOO", func(e *Env) {
		e.StoreByte(buf, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.LoadByte(buf.Add(uint64(i) & (vm.PageSize - 1)))
		}
	})
}

// BenchmarkFastpathStoreByte is the per-byte checked write loop.
func BenchmarkFastpathStoreByte(b *testing.B) {
	ts, buf := benchWorld(b)
	ts.enter(b, "FOO", func(e *Env) {
		e.StoreByte(buf, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.StoreByte(buf.Add(uint64(i)&(vm.PageSize-1)), byte(i))
		}
	})
}

// BenchmarkFastpathMemcpy4K copies one page between two resident buffers
// — the span check plus the direct page-chunk copy, no staging buffer.
func BenchmarkFastpathMemcpy4K(b *testing.B) {
	ts, buf := benchWorld(b)
	src, dst := buf, buf.Add(2*vm.PageSize)
	ts.enter(b, "FOO", func(e *Env) {
		e.Memset(src, 0x3C, vm.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Memcpy(dst, src, vm.PageSize)
		}
		b.StopTimer()
		b.SetBytes(vm.PageSize)
	})
}

// BenchmarkFastpathMemset4K fills one page through the span path.
func BenchmarkFastpathMemset4K(b *testing.B) {
	ts, buf := benchWorld(b)
	ts.enter(b, "FOO", func(e *Env) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Memset(buf, byte(i), vm.PageSize)
		}
		b.StopTimer()
		b.SetBytes(vm.PageSize)
	})
}
