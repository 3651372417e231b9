package priorart

import (
	"graybox/internal/sim"
)

// --- Implicit coscheduling ---
//
// Gray-box knowledge: the destination was scheduled when it sent a
// message. Observed output: request arrival and response time. Control:
// a waiting process spins (keeping itself scheduled) when a prompt
// response suggests its peer is running, and blocks (yielding its
// quantum, requeueing behind local background load) when the response is
// slow — achieving coordinated scheduling with no OS change.

// CoschedConfig describes two nodes running a communicating pair plus
// local background load.
type CoschedConfig struct {
	Quantum     sim.Time // local scheduler time slice
	Background  int      // competing local processes per node
	MessageCost sim.Time // network + processing per message
	Rounds      int      // communication rounds to complete
	SpinLimit   sim.Time // implicit-cosched spin threshold (~2x round trip)
	Implicit    bool     // use implicit coscheduling vs always-block
	Seed        uint64
}

// DefaultCoschedConfig returns the base setup.
func DefaultCoschedConfig() CoschedConfig {
	return CoschedConfig{
		Quantum:     10 * sim.Millisecond,
		Background:  2,
		MessageCost: 100 * sim.Microsecond,
		Rounds:      200,
		SpinLimit:   400 * sim.Microsecond,
		Implicit:    true,
	}
}

// CoschedResult reports the parallel job's completion time.
type CoschedResult struct {
	Elapsed   sim.Time
	Spins     int64    // waits satisfied within the spin limit
	Blocks    int64    // waits that gave up the processor
	IdealTime sim.Time // dedicated-machine lower bound
}

// RunCosched simulates a two-process parallel job, one process per node,
// playing Rounds of ping-pong while Background local processes compete
// for each node's CPU. "Being scheduled" is modeled as holding the
// node's CPU resource; a blocked waiter requeues behind the background
// load and pays up to a full quantum per competitor to get back on.
func RunCosched(cfg CoschedConfig) CoschedResult {
	e := sim.NewEngine(cfg.Seed)
	cpus := [2]*sim.Resource{sim.NewResource(e), sim.NewResource(e)}
	var res CoschedResult

	stop := false
	for n := 0; n < 2; n++ {
		cpu := cpus[n]
		for b := 0; b < cfg.Background; b++ {
			e.Go("bg", func(p *sim.Proc) {
				for !stop {
					cpu.Acquire(p)
					p.Sleep(cfg.Quantum)
					cpu.Release()
				}
			})
		}
	}

	// Shared ping-pong state: whose turn it is, and rounds completed.
	turn := 0
	rounds := 0
	player := func(me int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			cpu := cpus[me]
			cpu.Acquire(p)
			holding := true
			for rounds < cfg.Rounds {
				if turn == me {
					if !holding {
						cpu.Acquire(p)
						holding = true
					}
					p.Sleep(cfg.MessageCost) // receive, compute, send
					turn = 1 - me
					if me == 1 {
						rounds++
					}
					continue
				}
				// Waiting for the peer's message.
				waited := sim.Time(0)
				spun := false
				for turn != me && rounds < cfg.Rounds {
					if cfg.Implicit && waited < cfg.SpinLimit {
						p.Sleep(cfg.MessageCost / 4) // spin, CPU held
						waited += cfg.MessageCost / 4
						spun = true
						continue
					}
					// Block: yield and requeue behind the background.
					res.Blocks++
					if holding {
						cpu.Release()
						holding = false
					}
					p.Sleep(cfg.Quantum)
				}
				if spun && waited < cfg.SpinLimit {
					res.Spins++
				}
				if !holding {
					cpu.Acquire(p)
					holding = true
				}
			}
			if holding {
				cpu.Release()
			}
		}
	}
	pa := e.Go("pa", player(0))
	pb := e.Go("pb", player(1))
	e.WaitAll(pa, pb)
	res.Elapsed = e.Now()
	stop = true
	e.Run() // drain background processes

	res.IdealTime = sim.Time(cfg.Rounds) * 2 * cfg.MessageCost
	return res
}
