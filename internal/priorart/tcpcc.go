// Package priorart implements miniature, self-contained simulations of
// the three existing gray-box systems the paper surveys in Section 3 and
// Table 1: TCP congestion control, implicit coscheduling, and MS
// Manners. Each demonstrates the specific combination of algorithmic
// knowledge, observed outputs, and statistics the table attributes to
// it, so that Table 1 can be regenerated from running code rather than
// transcribed.
package priorart

import (
	"graybox/internal/sim"
)

// --- TCP congestion control over a drop-tail bottleneck ---
//
// Gray-box knowledge: the network drops packets when there is
// congestion. Observed output: whether an ACK arrives before the RTO.
// Control: senders shrink their window on loss (and routers, in turn,
// control senders by dropping).

// TCPConfig describes the bottleneck link and the senders.
type TCPConfig struct {
	Senders      int
	QueueLimit   int      // router queue capacity (packets)
	LinkDelay    sim.Time // per-packet service time at the bottleneck
	PropDelay    sim.Time // one-way propagation
	RTO          sim.Time // retransmit timeout
	Duration     sim.Time
	WirelessLoss float64 // random non-congestion loss rate (0 = wired)
	Seed         uint64
	// GrayBox disables congestion reaction when false (a sender that
	// ignores the loss signal — the "misbehaving client").
	GrayBox bool
}

// DefaultTCPConfig returns a 2-sender wired setup.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		Senders:    2,
		QueueLimit: 16,
		LinkDelay:  sim.Millisecond,
		PropDelay:  5 * sim.Millisecond,
		RTO:        120 * sim.Millisecond,
		Duration:   20 * sim.Second,
		GrayBox:    true,
	}
}

// TCPResult reports per-sender goodput and aggregate behavior.
type TCPResult struct {
	Delivered []int64 // packets per sender
	Drops     int64
	Timeouts  int64
	// AvgWindow is the time-average congestion window of sender 0.
	AvgWindow float64
}

// tcpSender holds one connection's congestion state.
type tcpSender struct {
	id       int
	window   float64
	inflight int
	waiting  bool
	proc     *sim.Proc
}

// RunTCP simulates AIMD senders sharing one drop-tail queue. Each packet
// is its own simulated process; senders block when their window is full
// and are woken by ACKs and timeouts.
func RunTCP(cfg TCPConfig) TCPResult {
	e := sim.NewEngine(cfg.Seed)
	res := TCPResult{Delivered: make([]int64, cfg.Senders)}
	link := sim.NewResource(e)
	rng := sim.NewRNG(cfg.Seed + 1)

	var windowSum float64
	var windowSamples int64

	for i := 0; i < cfg.Senders; i++ {
		snd := &tcpSender{id: i, window: 1}
		wake := func() {
			if snd.waiting {
				snd.waiting = false
				e.Unblock(snd.proc)
			}
		}
		onACK := func() {
			res.Delivered[snd.id]++
			snd.inflight--
			snd.window += 1 / snd.window // additive increase
			if snd.id == 0 {
				windowSum += snd.window
				windowSamples++
			}
			wake()
		}
		onLoss := func() {
			res.Timeouts++
			snd.inflight--
			if cfg.GrayBox {
				// The gray-box inference: a missing ACK means
				// congestion; multiplicative decrease.
				snd.window /= 2
				if snd.window < 1 {
					snd.window = 1
				}
			}
			wake()
		}
		sendPacket := func() {
			// Drop-tail admission: the router queue is the link's wait
			// line plus the packet in service.
			congested := link.QueueLen()+link.InUse() >= cfg.QueueLimit
			lossy := cfg.WirelessLoss > 0 && rng.Float64() < cfg.WirelessLoss
			if congested || lossy {
				res.Drops++
				// The sender learns of the loss only at its RTO.
				e.After(cfg.RTO, onLoss)
				return
			}
			e.Go("pkt", func(p *sim.Proc) {
				p.Sleep(cfg.PropDelay)
				link.Acquire(p)
				p.Sleep(cfg.LinkDelay)
				link.Release()
				p.Sleep(cfg.PropDelay) // ACK path
				onACK()
			})
		}
		snd.proc = e.Go("sender", func(p *sim.Proc) {
			for {
				now := p.Now()
				if now >= cfg.Duration {
					if snd.inflight == 0 {
						return
					}
				} else {
					for snd.inflight < int(snd.window) {
						snd.inflight++
						sendPacket()
					}
				}
				snd.waiting = true
				p.Block()
			}
		})
	}
	e.Run()
	if windowSamples > 0 {
		res.AvgWindow = windowSum / float64(windowSamples)
	}
	return res
}
