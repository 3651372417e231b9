package stash

import (
	"testing"

	"graybox/internal/simos"
)

// Allocation guards for the stash hot paths, same discipline as
// internal/cache and internal/vm: once the block map, the intrusive
// LRU/dirty arenas, the slot free stack, and the kernel paths beneath
// (OS cache, disk, event pool) have grown to the working set, a stash
// hit and a full miss+admit+evict cycle must not allocate.

// allocWorld builds a machine and a stash at quota, and hands the
// measurement body a warm stash. The OS cache is not smaller than the
// churn file: its 12 MB of frames (16 MB less the 4 MB kernel) hold all
// 8 MB, so each measured read of a churn block not read before also
// inserts a new page into the OS cache, at a new slot.
func allocWorld(t testing.TB, graybox bool, body func(st *Stash, hot, churn *File)) {
	s := newMachine(11)
	// 2048 distinct churn blocks against a 64-block quota: every read
	// past the warm set misses the stash, so (with naive admission)
	// admit+evict cycles run indefinitely regardless of OS residency.
	if _, err := s.FS(0).CreateSized("hot", 64*ps); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FS(0).CreateSized("churn", 2048*ps); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FS(1).CreateSized("stash0", 64*ps); err != nil {
		t.Fatal(err)
	}
	run(t, s, func(os *simos.OS) {
		st, err := New(os, Config{Backing: "/mnt1/stash0", QuotaBlocks: 64, GrayBox: graybox})
		if err != nil {
			t.Fatal(err)
		}
		hot, err := st.Open("hot")
		if err != nil {
			t.Fatal(err)
		}
		churn, err := st.Open("churn")
		if err != nil {
			t.Fatal(err)
		}
		// Warm everything: fill the stash to quota and run a few hundred
		// admit+evict cycles so every arena, map and pool reaches its
		// steady-state size.
		for pg := int64(0); pg < 512; pg++ {
			if err := churn.Read(pg%2048*ps, ps); err != nil {
				t.Fatal(err)
			}
		}
		body(st, hot, churn)
	})
}

func TestStashHitAllocs(t *testing.T) {
	allocWorld(t, false, func(st *Stash, hot, churn *File) {
		// One resident block, hit repeatedly.
		if err := churn.Read(0, ps); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := churn.Read(0, ps); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("stash hit allocs/op = %v, want 0", allocs)
		}
	})
}

func TestStashAdmitEvictSteadyStateAllocs(t *testing.T) {
	for _, graybox := range []bool{false, true} {
		allocWorld(t, graybox, func(st *Stash, hot, churn *File) {
			pg := int64(512)
			allocs := testing.AllocsPerRun(500, func() {
				if err := churn.Read(pg%2048*ps, ps); err != nil {
					t.Fatal(err)
				}
				pg++
			})
			if allocs != 0 {
				t.Errorf("graybox=%v: miss+admit+evict allocs/op = %v, want 0", graybox, allocs)
			}
		})
	}
}

func BenchmarkStashHit(b *testing.B) {
	allocWorld(b, false, func(st *Stash, hot, churn *File) {
		if err := churn.Read(0, ps); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := churn.Read(0, ps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkStashAdmitEvict(b *testing.B) {
	allocWorld(b, false, func(st *Stash, hot, churn *File) {
		pg := int64(512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := churn.Read(pg%2048*ps, ps); err != nil {
				b.Fatal(err)
			}
			pg++
		}
	})
}

func BenchmarkStashGrayBoxAdmission(b *testing.B) {
	allocWorld(b, true, func(st *Stash, hot, churn *File) {
		pg := int64(512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := churn.Read(pg%2048*ps, ps); err != nil {
				b.Fatal(err)
			}
			pg++
		}
	})
}
