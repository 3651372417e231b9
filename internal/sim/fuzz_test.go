package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// FuzzEngineOrder checks the engine's event order against orderModel, a
// reference without goroutines that keeps its pending events in a sorted
// slice. The fuzz bytes decode into a few scripted processes and a driver
// sequence (decodeScenario). Both sides log each process resume, each
// Acquire return and each closure fire with the clock, and each driver
// return with the clock and every process's state; the logs, the final
// clock and the Checkpoint sequence number must match.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScenario(data)
		got, gotNow, gotSeq := runEngineScenario(sc)
		want, wantNow, wantSeq := runModelScenario(sc)
		if !reflect.DeepEqual(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("logs diverge at entry %d\nengine: %q\nmodel:  %q", i, got[i:], want[i:])
		}
		if gotNow != wantNow || gotSeq != wantSeq {
			t.Fatalf("Checkpoint = (%v, %d), model (%v, %d)", gotNow, gotSeq, wantNow, wantSeq)
		}
	})
}

// Script operations.
const (
	opSleep = iota // Sleep(d)
	opAfter        // After(d, closure that logs its fire)
	opSpawn        // spawn a new process running script at +d
	opHold         // Acquire the shared Resource, Sleep(d), Release
)

// opOfKind maps bits 0-1 of a kind byte to a script operation. Kind 2 is
// a second After, so spawn keeps kind 3, the value the committed inputs
// use. A sleep whose kind byte has bit 7 set is a hold (holdBit): every
// sleep in the inputs committed before holds existed has kind byte 0.
var opOfKind = [4]int{opSleep, opAfter, opAfter, opSpawn}

const holdBit = 0x80

// maxProcs bounds the processes a scenario spawns, so scripts that spawn
// themselves terminate.
const maxProcs = 8

type scriptOp struct {
	kind   int
	script int // opSpawn's script
	d      Time
}

// scenario is a decoded fuzz input: one top-level process per script,
// RunUntil steps, then WaitAll on the top-level processes (optional) and
// a final Run.
type scenario struct {
	scripts   [][]scriptOp
	starts    []Time // start delay of each script's top-level process
	deadlines []Time // RunUntil deadlines, ascending
	waitAll   bool
}

// decodeScenario reads data as
//
//	flags  bit 0 unused; (flags>>1)%3+1 scripts
//	per script: start delay, op count (%9), then per op a kind byte
//	  (bits 0-1 the op by opOfKind, the rest the spawned script; a
//	  sleep with holdBit set is a hold) and a delay byte
//	driver  %4 RunUntil steps, bit 2: WaitAll; then one delay byte per step
//
// A delay byte is (b&63) << {0, 12, 20, 28}[b>>6]: a count of
// nanoseconds, of about 4 µs, of about 1 ms, or of about 268 ms. Missing
// bytes read as zero.
func decodeScenario(data []byte) scenario {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	dur := func(b byte) Time { return Time(b&63) << [4]uint{0, 12, 20, 28}[b>>6] }
	flags := next()
	var sc scenario
	n := int(flags>>1)%3 + 1
	for s := 0; s < n; s++ {
		sc.starts = append(sc.starts, dur(next()))
		ops := make([]scriptOp, int(next())%9)
		for i := range ops {
			k := next()
			op := opOfKind[k&3]
			if op == opSleep && k&holdBit != 0 {
				op = opHold
			}
			ops[i] = scriptOp{kind: op, script: int(k>>2) % n, d: dur(next())}
		}
		sc.scripts = append(sc.scripts, ops)
	}
	drv := next()
	sc.waitAll = drv&4 != 0
	var deadline Time
	for i := 0; i < int(drv%4); i++ {
		deadline += dur(next())
		sc.deadlines = append(sc.deadlines, deadline)
	}
	return sc
}

// runEngineScenario runs sc on the engine.
func runEngineScenario(sc scenario) (log []string, now Time, seq uint64) {
	e := NewEngine(1)
	res := NewResource(e)
	var procs []*Proc
	closures := 0
	var spawn func(script int, delay Time)
	spawn = func(script int, delay Time) {
		id := len(procs)
		procs = append(procs, e.Spawn(fmt.Sprint("p", id), delay, func(p *Proc) {
			log = append(log, fmt.Sprintf("%d p%d", p.Now(), id))
			for _, op := range sc.scripts[script] {
				switch op.kind {
				case opSleep:
					p.Sleep(op.d)
					log = append(log, fmt.Sprintf("%d p%d", p.Now(), id))
				case opHold:
					res.Acquire(p)
					log = append(log, fmt.Sprintf("%d p%d+", p.Now(), id))
					p.Sleep(op.d)
					res.Release()
					log = append(log, fmt.Sprintf("%d p%d", p.Now(), id))
				case opAfter:
					c := closures
					closures++
					e.After(op.d, func() { log = append(log, fmt.Sprintf("%d c%d", e.Now(), c)) })
				case opSpawn:
					if len(procs) < maxProcs {
						spawn(op.script, op.d)
					}
				}
			}
		}))
	}
	for s := range sc.scripts {
		spawn(s, sc.starts[s])
	}
	top := append([]*Proc(nil), procs...)
	mark := func(driver string) {
		states := make([]string, len(procs))
		for i, p := range procs {
			states[i] = p.State().String()
		}
		log = append(log, fmt.Sprintf("%d %s %v", e.Now(), driver, states))
	}
	for _, d := range sc.deadlines {
		e.RunUntil(d)
		mark("run-until")
	}
	if sc.waitAll {
		e.WaitAll(top...)
		mark("wait-all")
	}
	e.Run()
	mark("run")
	now, seq = e.Checkpoint()
	return log, now, seq
}

// orderModel is the reference engine: pending events in a slice sorted
// by (at, seq), and processes as scripts with a program counter that run
// inline when their event fires. The shared resource is a held flag and
// a FIFO of waiting processes: a release grants the head waiter and
// queues its wake at now, and the waiter reads runnable until that wake
// fires.
type orderModel struct {
	sc       scenario
	now      Time
	seq      uint64
	pending  []modelEvent
	procs    []modelProc
	closures int
	held     bool
	waiters  []int
	log      []string
}

type modelEvent struct {
	at      Time
	seq     uint64
	proc    int // process to start or resume; -1 for a closure
	closure int
}

type modelProc struct {
	script, pc    int
	started, done bool
	granted       bool // a release granted the resource; its wake is pending
	holding       bool // in a hold's Sleep; its wake releases
}

func (m *orderModel) push(at Time, proc, closure int) {
	ev := modelEvent{at: at, seq: m.seq, proc: proc, closure: closure}
	m.seq++
	i := sort.Search(len(m.pending), func(i int) bool { return m.pending[i].at > at })
	m.pending = append(m.pending, modelEvent{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
}

func (m *orderModel) spawn(script int, delay Time) {
	m.push(m.now+delay, len(m.procs), 0)
	m.procs = append(m.procs, modelProc{script: script})
}

// fire runs the earliest pending event; it reports false when none is
// left.
func (m *orderModel) fire() bool {
	if len(m.pending) == 0 {
		return false
	}
	ev := m.pending[0]
	m.pending = m.pending[1:]
	m.now = ev.at
	if ev.proc < 0 {
		m.log = append(m.log, fmt.Sprintf("%d c%d", m.now, ev.closure))
		return true
	}
	id := ev.proc
	ops := m.sc.scripts[m.procs[id].script]
	switch {
	case m.procs[id].granted:
		m.procs[id].granted = false
		m.acquired(id, ops[m.procs[id].pc-1].d)
		return true
	case m.procs[id].holding:
		m.procs[id].holding = false
		m.release()
	}
	m.procs[id].started = true
	m.log = append(m.log, fmt.Sprintf("%d p%d", m.now, id))
	for m.procs[id].pc < len(ops) {
		op := ops[m.procs[id].pc]
		m.procs[id].pc++
		switch op.kind {
		case opSleep:
			m.push(m.now+op.d, id, 0)
			return true
		case opHold:
			if m.held {
				m.waiters = append(m.waiters, id)
				return true
			}
			m.held = true
			m.acquired(id, op.d)
			return true
		case opAfter:
			m.push(m.now+op.d, -1, m.closures)
			m.closures++
		case opSpawn:
			if len(m.procs) < maxProcs {
				m.spawn(op.script, op.d)
			}
		}
	}
	m.procs[id].done = true
	return true
}

// acquired logs process id's Acquire returning and queues the wake of
// its hold's Sleep(d).
func (m *orderModel) acquired(id int, d Time) {
	m.log = append(m.log, fmt.Sprintf("%d p%d+", m.now, id))
	m.procs[id].holding = true
	m.push(m.now+d, id, 0)
}

// release frees the resource, or hands it to the head waiter and queues
// that waiter's wake at now.
func (m *orderModel) release() {
	if len(m.waiters) == 0 {
		m.held = false
		return
	}
	id := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.procs[id].granted = true
	m.push(m.now, id, 0)
}

// done reports whether the first n processes have finished.
func (m *orderModel) done(n int) bool {
	for _, p := range m.procs[:n] {
		if !p.done {
			return false
		}
	}
	return true
}

func (m *orderModel) mark(driver string) {
	states := make([]string, len(m.procs))
	for i, p := range m.procs {
		switch {
		case !p.started:
			states[i] = StateNew.String()
		case p.done:
			states[i] = StateDone.String()
		case p.granted:
			states[i] = StateRunnable.String()
		default:
			states[i] = StateBlocked.String()
		}
	}
	m.log = append(m.log, fmt.Sprintf("%d %s %v", m.now, driver, states))
}

// runModelScenario runs sc on the reference model.
func runModelScenario(sc scenario) (log []string, now Time, seq uint64) {
	m := &orderModel{sc: sc}
	for s := range sc.scripts {
		m.spawn(s, sc.starts[s])
	}
	for _, d := range sc.deadlines {
		for len(m.pending) > 0 && m.pending[0].at <= d {
			m.fire()
		}
		if m.now < d {
			m.now = d
		}
		m.mark("run-until")
	}
	if sc.waitAll {
		for !m.done(len(sc.scripts)) && m.fire() {
		}
		m.mark("wait-all")
	}
	for m.fire() {
	}
	m.mark("run")
	return m.log, m.now, m.seq
}
