// Package ring provides an intrusive, index-based doubly linked list
// backed by a slice arena with a free list. It replaces container/list on
// the simulated kernel's hot paths (the VM page daemon's clock, the AFS,
// stash and shadow-detector LRUs, the SMP run queues), where allocating
// a heap node per tracked element made large sweeps GC-bound.
//
// Nodes live in one contiguous slice; links are int32 indices into that
// slice, and removed nodes go onto an internal free list for reuse. Once
// the arena has grown to the working-set size, every operation is
// allocation-free: a steady-state insert reuses the slot the matching
// remove released (the same discipline the sim engine's event pool
// follows). Handles stay valid across arena growth because they are
// indices, not pointers — but for the same reason, callers must not
// retain *T pointers from At across an insertion.
//
// Index 0 is a sentinel that closes the list into a physical ring, so
// link and unlink need no end-of-list branches, and the zero Handle
// doubles as None. The zero List is empty and ready to use.
package ring

// Handle names a node in a List. Handles are stable for the lifetime of
// the element: they survive arena growth and other elements' insertion
// and removal, and are invalidated only by Remove (after which the slot
// may be reused by a later insert). The zero Handle is None.
type Handle int32

// None is the null Handle, returned by Front/Back/Next/Prev when no
// element exists. It is the index of the internal sentinel, which never
// holds an element.
const None Handle = 0

type node[T any] struct {
	prev, next int32
	val        T
}

// List is an intrusive doubly linked list of T backed by a slice arena.
// The zero value is an empty list. Lists must not be copied after use.
type List[T any] struct {
	// nodes[0] is the sentinel: nodes[0].next is the front, nodes[0].prev
	// the back. Element indices are always >= 1.
	nodes []node[T]
	// free heads the removed-node free list (linked through next);
	// 0 (the sentinel, never freed) means empty.
	free int32
	len  int
}

// Len returns the number of elements.
func (l *List[T]) Len() int { return l.len }

// alloc returns a free slot, reusing the free list before growing the
// arena, and stores v in it. Links are set by link.
func (l *List[T]) alloc(v T) int32 {
	if i := l.free; i != 0 {
		l.free = l.nodes[i].next
		l.nodes[i].val = v
		return i
	}
	if len(l.nodes) == cap(l.nodes) {
		// Double the arena: append grows a large slice by about a
		// quarter at a time, so a ring that reached N nodes would have
		// allocated about 4N along the way. Growing with make and
		// append, rather than slices.Grow, keeps alloc small enough to
		// inline into the push methods.
		l.nodes = append(make([]node[T], 0, 2*len(l.nodes)+2), l.nodes...)
	}
	if len(l.nodes) == 0 {
		// First use: materialize the sentinel (self-linked).
		l.nodes = append(l.nodes, node[T]{})
	}
	l.nodes = append(l.nodes, node[T]{val: v})
	return int32(len(l.nodes) - 1)
}

// link splices node i after node at (which may be the sentinel).
func (l *List[T]) link(i, at int32) {
	n := l.nodes
	next := n[at].next
	n[i].prev, n[i].next = at, next
	n[at].next = i
	n[next].prev = i
	l.len++
}

// PushFront inserts v at the front and returns its handle.
func (l *List[T]) PushFront(v T) Handle {
	i := l.alloc(v)
	l.link(i, 0)
	return Handle(i)
}

// PushBack inserts v at the back and returns its handle.
func (l *List[T]) PushBack(v T) Handle {
	i := l.alloc(v)
	l.link(i, l.nodes[0].prev)
	return Handle(i)
}

// Remove unlinks h, releases its slot for reuse, and returns its value.
// h is invalid afterwards.
func (l *List[T]) Remove(h Handle) T {
	i := int32(h)
	n := l.nodes
	n[n[i].prev].next = n[i].next
	n[n[i].next].prev = n[i].prev
	v := n[i].val
	var zero T
	n[i].val = zero // drop references so the arena doesn't pin them
	n[i].next = l.free
	n[i].prev = -1
	l.free = i
	l.len--
	return v
}

// MoveToFront relinks h at the front. The handle stays valid.
func (l *List[T]) MoveToFront(h Handle) {
	i := int32(h)
	if l.nodes[0].next == i {
		return
	}
	l.unlink(i)
	l.link(i, 0)
}

// MoveToBack relinks h at the back. The handle stays valid.
func (l *List[T]) MoveToBack(h Handle) {
	i := int32(h)
	if l.nodes[0].prev == i {
		return
	}
	l.unlink(i)
	l.link(i, l.nodes[0].prev)
}

// unlink detaches i without freeing its slot.
func (l *List[T]) unlink(i int32) {
	n := l.nodes
	n[n[i].prev].next = n[i].next
	n[n[i].next].prev = n[i].prev
	l.len--
}

// Front returns the first element's handle, or None when empty.
func (l *List[T]) Front() Handle {
	if l.len == 0 {
		return None
	}
	return Handle(l.nodes[0].next)
}

// Back returns the last element's handle, or None when empty.
func (l *List[T]) Back() Handle {
	if l.len == 0 {
		return None
	}
	return Handle(l.nodes[0].prev)
}

// Next returns the handle after h, or None at the back.
func (l *List[T]) Next(h Handle) Handle { return Handle(l.nodes[h].next) }

// Prev returns the handle before h, or None at the front.
func (l *List[T]) Prev(h Handle) Handle { return Handle(l.nodes[h].prev) }

// At returns a pointer to h's value. The pointer is invalidated by any
// insertion (the arena may grow); do not hold it across one.
func (l *List[T]) At(h Handle) *T { return &l.nodes[h].val }

// Init empties the list, retaining the arena's capacity but dropping all
// element values.
func (l *List[T]) Init() {
	if len(l.nodes) == 0 {
		return
	}
	clear(l.nodes)
	l.nodes = l.nodes[:1]
	l.free = 0
	l.len = 0
}
