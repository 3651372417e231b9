package experiments

import (
	"graybox/internal/audit"
	"graybox/internal/core/mac"
	"graybox/internal/sim"
	"graybox/internal/simos"
)

// macAccuracyPoint runs one point of the MAC accuracy sweep: a hog
// holding frac of usable memory hot while MAC measures what is left.
// The admission is scored by the platform's oracle-grounded auditor, so
// the returned record carries both MAC's answer and the memory that was
// truly available when gb_alloc ran — the harness keeps no parallel
// bookkeeping of its own.
func macAccuracyPoint(sc Scale, frac float64, seed uint64) (rec audit.MACRecord, hogMB, availMB int64) {
	s := newSystem(simos.Linux22, sc, seed)
	aud := s.EnableAudit()
	availMB = usableMB(s)
	hogMB = int64(float64(availMB) * frac)
	hogBytes := hogMB * simos.MB

	stop := false
	ready := false
	hog := s.Spawn("hog", 0, func(os *simos.OS) {
		m := os.Malloc(hogBytes)
		for !stop {
			os.TouchRange(m, 0, m.Pages(), true)
			ready = true // working set established after the first pass
			os.Sleep(50 * sim.Millisecond)
		}
	})
	p := s.Spawn("mac", 20*sim.Millisecond, func(os *simos.OS) {
		defer func() { stop = true }()
		for !ready {
			os.Sleep(10 * sim.Millisecond)
		}
		ctl := mac.New(os, mac.Config{
			InitialIncrement: sc.mb(4) * simos.MB,
			MaxIncrement:     sc.mb(64) * simos.MB,
		})
		a, ok := ctl.GBAlloc(simos.MB, availMB*simos.MB, simos.MB)
		if !ok {
			return
		}
		ctl.GBFree(a)
	})
	s.Engine.WaitAll(p)
	mustNoErr(p.Err())
	rec, _ = aud.LastMAC()
	// Drain the hog: it wakes, sees stop and returns. Left parked, it
	// would keep its goroutine, and with it the whole machine, alive.
	s.Engine.WaitAll(hog)
	mustNoErr(hog.Err())
	return rec, hogMB, availMB
}
