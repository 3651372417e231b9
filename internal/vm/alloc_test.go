package vm

import (
	"testing"
	"unsafe"

	"graybox/internal/sim"
)

// TestPageStateSize pins the per-page record: an address space of N
// pages holds N of them, so a field added here grows every anonymous
// region.
func TestPageStateSize(t *testing.T) {
	if size := unsafe.Sizeof(pageState{}); size != 8 {
		t.Errorf("pageState is %d bytes, want 8", size)
	}
}

// TestTouchResidentAllocs is the CI tripwire for the MAC probe loop's
// hottest path: touching a resident page (clock relink + wake event)
// must not allocate once the clock ring and the engine's event pool are
// warm. The measurement runs inside the process body, on virtual time.
func TestTouchResidentAllocs(t *testing.T) {
	w := newWorld(256)
	as := w.vm.NewSpace()
	var allocs float64
	w.run(t, func(p *sim.Proc) {
		r := as.Alloc(64)
		for i := int64(0); i < 64; i++ {
			as.Touch(p, r, i, true) // fault everything in; warm the pools
		}
		i := int64(0)
		allocs = testing.AllocsPerRun(1000, func() {
			as.Touch(p, r, i%64, true)
			i++
		})
	})
	if allocs != 0 {
		t.Errorf("resident Touch allocs/op = %v, want 0", allocs)
	}
}

// TestEvictSwapInSteadyStateAllocs drives the overcommit cycle — every
// touch swaps one page in and another out — and checks the clock ring
// and swap-slot free list reach an allocation-free steady state.
func TestEvictSwapInSteadyStateAllocs(t *testing.T) {
	w := newWorld(32)
	as := w.vm.NewSpace()
	var allocs float64
	w.run(t, func(p *sim.Proc) {
		r := as.Alloc(64) // 2x physical memory
		for round := 0; round < 3; round++ {
			for i := int64(0); i < 64; i++ {
				as.Touch(p, r, i, true)
			}
		}
		i := int64(0)
		allocs = testing.AllocsPerRun(200, func() {
			as.Touch(p, r, i%64, true)
			i++
		})
	})
	if allocs != 0 {
		t.Errorf("swap-cycle Touch allocs/op = %v, want 0", allocs)
	}
}

func BenchmarkTouchResident(b *testing.B) {
	w := newWorld(256)
	as := w.vm.NewSpace()
	pr := w.e.Go("bench", func(p *sim.Proc) {
		r := as.Alloc(64)
		for i := int64(0); i < 64; i++ {
			as.Touch(p, r, i, true)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			as.Touch(p, r, int64(i)%64, true)
		}
	})
	w.e.Run()
	if pr.Err() != nil {
		b.Fatal(pr.Err())
	}
}
