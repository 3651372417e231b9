package experiments

import (
	"sync"
	"sync/atomic"

	"graybox/internal/audit"
	"graybox/internal/sim"
	"graybox/internal/simos"
	"graybox/internal/telemetry"
)

// Every platform built through newSystem/newMultiDiskSystem, or handed
// to trackSystem, leaves one record here: its engine, for the summed
// virtual time of the -bench-out report, and its telemetry registry and
// auditor when EnableTelemetry or EnableAudit was on at construction.
// The machine itself is not kept, so a finished trial's machine can be
// collected before its experiment ends. Mini-simulations that build raw
// engines (internal/priorart) are not tracked.
var (
	telEnabled, audEnabled atomic.Bool

	trackMu sync.Mutex
	tracked []platformRecord
)

// platformRecord is what the harness keeps of one tracked platform.
type platformRecord struct {
	engine *sim.Engine
	reg    *telemetry.Registry // nil unless harness telemetry was on
	aud    *audit.Auditor      // nil unless harness auditing was on
}

// EnableTelemetry switches harness telemetry on or off (the CLI's
// -trace/-metrics/-profile flags). It only affects platforms built
// afterwards.
func EnableTelemetry(on bool) { telEnabled.Store(on) }

// EnableAudit switches harness auditing on or off (the CLI's -audit
// flag). It only affects platforms built afterwards.
func EnableAudit(on bool) { audEnabled.Store(on) }

// trackSystem instruments s as the harness switches say and records it.
func trackSystem(s *simos.System) *simos.System {
	rec := platformRecord{engine: s.Engine}
	if telEnabled.Load() {
		rec.reg = s.EnableTelemetry()
	}
	if audEnabled.Load() {
		rec.aud = s.EnableAudit()
	}
	trackMu.Lock()
	tracked = append(tracked, rec)
	trackMu.Unlock()
	return s
}

// Drain returns what the platforms built since the previous drain left
// behind, and forgets them: their summed final virtual clocks, and
// their registries and auditors. Callers drain once per experiment.
// Given an experiment id, Drain labels each registry and auditor
// "<id> | <platform>", the label every export carries; an empty id
// leaves the platform labels as they are. Trial workers finish in
// nondeterministic order, so registries and auditors are sorted by
// (label, serialized content), which makes the exports byte-identical
// at any pool width.
func Drain(id string) (virtual sim.Time, regs []*telemetry.Registry, auds []*audit.Auditor) {
	trackMu.Lock()
	recs := tracked
	tracked = nil
	trackMu.Unlock()
	for _, r := range recs {
		virtual += r.engine.Now()
		if r.reg != nil {
			if id != "" {
				r.reg.SetLabel(id + " | " + r.reg.Label())
			}
			regs = append(regs, r.reg)
		}
		if r.aud != nil {
			if id != "" {
				r.aud.SetLabel(id + " | " + r.aud.Label())
			}
			auds = append(auds, r.aud)
		}
	}
	// With telemetry and audit off there is nothing to sort, and the
	// drain only sums clocks.
	if len(regs) > 1 {
		telemetry.SortRegistries(regs)
	}
	if len(auds) > 1 {
		audit.SortAuditors(auds)
	}
	return virtual, regs, auds
}

// TakeVirtualTime returns the summed final virtual clocks of every
// platform built since the previous drain, and resets the record.
func TakeVirtualTime() sim.Time {
	virtual, _, _ := Drain("")
	return virtual
}
