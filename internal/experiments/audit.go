package experiments

import (
	"sync"
	"sync/atomic"

	"graybox/internal/audit"
)

// Harness auditing mirrors harness telemetry: when enabled, every
// platform built through newSystem/newMultiDiskSystem gets an
// oracle-grounded auditor at construction and the auditor is
// accumulated here; the CLI drains the set after each experiment.
// Workers finish in nondeterministic order, so the drain sorts auditors
// by (label, report content) — making the -audit export byte-identical
// at any pool width.
var (
	audEnabled atomic.Bool
	audMu      sync.Mutex
	auditors   []*audit.Auditor
)

// EnableAudit switches harness auditing on or off (the CLI's -audit
// flag). It only affects platforms built afterwards.
func EnableAudit(on bool) { audEnabled.Store(on) }

// TakeAudits returns the auditors of every platform built since the
// previous call, in deterministic order, and resets the accumulator.
func TakeAudits() []*audit.Auditor {
	audMu.Lock()
	auds := auditors
	auditors = nil
	audMu.Unlock()
	audit.SortAuditors(auds)
	return auds
}
