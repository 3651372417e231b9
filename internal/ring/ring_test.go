package ring

import (
	"container/list"
	"math/bits"
	"math/rand"
	"testing"
)

// collect walks the list front to back.
func collect(l *List[int]) []int {
	var out []int
	for h := l.Front(); h != None; h = l.Next(h) {
		out = append(out, *l.At(h))
	}
	return out
}

// collectBack walks the list back to front.
func collectBack(l *List[int]) []int {
	var out []int
	for h := l.Back(); h != None; h = l.Prev(h) {
		out = append(out, *l.At(h))
	}
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestZeroValueEmpty(t *testing.T) {
	var l List[int]
	if l.Len() != 0 {
		t.Fatalf("Len = %d, want 0", l.Len())
	}
	if l.Front() != None || l.Back() != None {
		t.Fatal("Front/Back of empty list should be None")
	}
}

func TestPushRemoveOrder(t *testing.T) {
	var l List[int]
	h2 := l.PushBack(2)
	l.PushBack(3)
	l.PushFront(1)
	if got := collect(&l); !equal(got, []int{1, 2, 3}) {
		t.Fatalf("collect = %v, want [1 2 3]", got)
	}
	if got := collectBack(&l); !equal(got, []int{3, 2, 1}) {
		t.Fatalf("collectBack = %v, want [3 2 1]", got)
	}
	if v := l.Remove(h2); v != 2 {
		t.Fatalf("Remove = %d, want 2", v)
	}
	if got := collect(&l); !equal(got, []int{1, 3}) {
		t.Fatalf("after remove: %v, want [1 3]", got)
	}
}

func TestMoveToFrontBack(t *testing.T) {
	var l List[int]
	h1 := l.PushBack(1)
	l.PushBack(2)
	h3 := l.PushBack(3)
	l.MoveToFront(h3)
	if got := collect(&l); !equal(got, []int{3, 1, 2}) {
		t.Fatalf("after MoveToFront: %v", got)
	}
	l.MoveToFront(h3) // already front: no-op
	if got := collect(&l); !equal(got, []int{3, 1, 2}) {
		t.Fatalf("after no-op MoveToFront: %v", got)
	}
	l.MoveToBack(h1)
	if got := collect(&l); !equal(got, []int{3, 2, 1}) {
		t.Fatalf("after MoveToBack: %v", got)
	}
	l.MoveToBack(h1) // already back: no-op
	if got := collect(&l); !equal(got, []int{3, 2, 1}) {
		t.Fatalf("after no-op MoveToBack: %v", got)
	}
}

// TestMoveToFrontSingle pins the single-element and front-element no-op
// paths of MoveToFront (and MoveToBack's mirror).
func TestMoveToFrontSingle(t *testing.T) {
	var l List[int]
	h := l.PushBack(7)
	l.MoveToFront(h)
	if l.Len() != 1 || l.Front() != h || l.Back() != h {
		t.Fatal("MoveToFront broke a singleton")
	}
	if got := collect(&l); !equal(got, []int{7}) {
		t.Fatalf("collect = %v, want [7]", got)
	}
	l.MoveToBack(h)
	if l.Len() != 1 || l.Front() != h || l.Back() != h {
		t.Fatal("MoveToBack broke a singleton")
	}
	// The links must still close through the sentinel: inserts after the
	// moves land correctly.
	l.PushFront(6)
	l.PushBack(8)
	if got := collect(&l); !equal(got, []int{6, 7, 8}) {
		t.Fatalf("collect after singleton moves = %v", got)
	}
}

func TestSlotReuse(t *testing.T) {
	var l List[int]
	h := l.PushBack(1)
	arena := len(l.nodes)
	l.Remove(h)
	l.PushBack(2)
	if len(l.nodes) != arena {
		t.Fatalf("arena grew from %d to %d across remove+push", arena, len(l.nodes))
	}
}

func TestInit(t *testing.T) {
	var l List[string]
	l.PushBack("a")
	l.PushBack("b")
	l.Init()
	if l.Len() != 0 || l.Front() != None {
		t.Fatal("Init should empty the list")
	}
	h := l.PushBack("c")
	if *l.At(h) != "c" || l.Len() != 1 {
		t.Fatal("list unusable after Init")
	}
	if got := cap(l.nodes); got < 2 {
		t.Fatalf("Init dropped arena capacity: %d", got)
	}
}

// TestAgainstContainerList drives the same random operation sequence
// through List and container/list and checks they always agree.
func TestAgainstContainerList(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var l List[int]
	ref := list.New()
	handles := map[int]Handle{}    // value -> ring handle
	els := map[int]*list.Element{} // value -> container/list element
	var vals []int
	next := 0

	snapshot := func() []int {
		var out []int
		for e := ref.Front(); e != nil; e = e.Next() {
			out = append(out, e.Value.(int))
		}
		return out
	}
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(5); {
		case op == 0 || len(vals) == 0: // push back
			handles[next] = l.PushBack(next)
			els[next] = ref.PushBack(next)
			vals = append(vals, next)
			next++
		case op == 1: // push front
			handles[next] = l.PushFront(next)
			els[next] = ref.PushFront(next)
			vals = append(vals, next)
			next++
		case op == 2: // remove random
			i := rng.Intn(len(vals))
			v := vals[i]
			if got := l.Remove(handles[v]); got != v {
				t.Fatalf("step %d: Remove returned %d, want %d", step, got, v)
			}
			ref.Remove(els[v])
			delete(handles, v)
			delete(els, v)
			vals[i] = vals[len(vals)-1]
			vals = vals[:len(vals)-1]
		case op == 3: // move to front
			v := vals[rng.Intn(len(vals))]
			l.MoveToFront(handles[v])
			ref.MoveToFront(els[v])
		default: // move to back
			v := vals[rng.Intn(len(vals))]
			l.MoveToBack(handles[v])
			ref.MoveToBack(els[v])
		}
		if l.Len() != ref.Len() {
			t.Fatalf("step %d: Len = %d, ref = %d", step, l.Len(), ref.Len())
		}
		if step%97 == 0 {
			if got, want := collect(&l), snapshot(); !equal(got, want) {
				t.Fatalf("step %d: order diverged\n got %v\nwant %v", step, got, want)
			}
		}
	}
	if got, want := collect(&l), snapshot(); !equal(got, want) {
		t.Fatalf("final order diverged\n got %v\nwant %v", got, want)
	}
}

// TestSteadyStateAllocs is the package's allocation contract: once the
// arena holds the working set, remove+insert cycles and moves are free.
func TestSteadyStateAllocs(t *testing.T) {
	var l List[int]
	hs := make([]Handle, 64)
	for i := range hs {
		hs[i] = l.PushBack(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		l.MoveToFront(hs[i%64])
		v := l.Remove(hs[(i+7)%64])
		hs[(i+7)%64] = l.PushBack(v)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

// TestGrowthAllocs pins the arena's doubling: pushing n nodes into an
// empty list allocates at most ⌈log₂ n⌉ + 1 times. Growing by append's
// quarter steps took about twice as many allocations and four times the
// bytes.
func TestGrowthAllocs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 64, 1000, 100_000} {
		var l List[int]
		allocs := testing.AllocsPerRun(5, func() {
			l = List[int]{}
			for i := 0; i < n; i++ {
				l.PushBack(i)
			}
		})
		if limit := bits.Len(uint(n-1)) + 1; allocs > float64(limit) {
			t.Errorf("pushing %d nodes: %v allocs, want at most %d", n, allocs, limit)
		}
	}
}

func BenchmarkMoveToFront(b *testing.B) {
	var l List[int]
	hs := make([]Handle, 1024)
	for i := range hs {
		hs[i] = l.PushBack(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.MoveToFront(hs[i%1024])
	}
}

func BenchmarkRemovePushBack(b *testing.B) {
	var l List[int]
	hs := make([]Handle, 1024)
	for i := range hs {
		hs[i] = l.PushBack(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := l.Remove(hs[i%1024])
		hs[i%1024] = l.PushBack(v)
	}
}
