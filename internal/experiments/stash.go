package experiments

import (
	"fmt"

	"graybox/internal/disk"
	"graybox/internal/simos"
	"graybox/internal/stash"
)

// StashConfig parameterizes the second-level stash sweep: stash quota
// (as a fraction of the OS frame pool) crossed with workload intensity
// (how much of the read stream targets OS-warm files), gray-box
// admission vs. the naive always-admit control arm.
type StashConfig struct {
	Scale Scale
	// QuotaFracs sweeps the stash quota as a fraction of the machine's
	// frame-pool capacity.
	QuotaFracs []float64
	// Intensities sweeps the probability that a read targets the
	// OS-warmed subset of the corpus; higher intensity means more
	// fetches the kernel would have served from memory anyway.
	Intensities []float64
}

func (c StashConfig) withDefaults() StashConfig {
	if c.Scale.MemoryMB == 0 {
		c.Scale = FullScale()
	}
	if len(c.QuotaFracs) == 0 {
		c.QuotaFracs = []float64{0.125, 0.5}
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{0, 0.5}
	}
	return c
}

const (
	stashFiles     = 16 // corpus files; the corpus totals 1.5x the pool
	stashWarmFiles = 4  // files pre-read through the OS before the run
)

// buildStashSystem is buildSystem plus the fast tier disk the stash
// backing file lives on.
func buildStashSystem(sc Scale, seed uint64) *simos.System {
	fast := disk.FastParams()
	cfg := sc.machine(simos.Linux22, seed)
	cfg.TierDisk = &fast
	return simos.New(cfg)
}

// poolBlocks returns the frame-pool capacity in pages (= stash blocks;
// both tiers share one block size).
func poolBlocks(s *simos.System) int64 { return int64(s.Pool.Capacity()) }

// sm64 is a splitmix64 stream — the trial's private, seed-deterministic
// access-pattern generator (engine RNG draws would couple the pattern
// to unrelated kernel events).
type sm64 uint64

func (x *sm64) next() uint64 {
	*x += 0x9e3779b97f4a7c15
	z := uint64(*x)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stashArm is one sweep point.
type stashArm struct {
	frac      float64
	intensity float64
	gray      bool
}

// Stash measures what gray-box admission buys a second-level cache. A
// corpus 1.5x the frame pool lives on the slow disk; part of it is
// pre-warmed through the OS, so a fraction of stash fetches would have
// been served by the invisible kernel cache. The naive arm admits every
// fetch and burns quota double-caching those blocks; the gray-box arm
// times each fetch (FCCD) and declines the memory-speed ones. The
// platform's audit oracle scores every admission against true residency
// — the "wasted" columns below are oracle counts, not stash guesses.
// Each trial ends in degraded mode: the source goes offline and a
// replay of the online read stream measures how much the stash can
// serve alone ("off-hit").
func Stash(cfg StashConfig) *Table {
	cfg = cfg.withDefaults()
	sc := cfg.Scale
	var arms []stashArm
	maxFrac := 0.0
	for _, qf := range cfg.QuotaFracs {
		if qf > maxFrac {
			maxFrac = qf
		}
		for _, in := range cfg.Intensities {
			arms = append(arms, stashArm{qf, in, false}, stashArm{qf, in, true})
		}
	}
	t := &Table{
		ID:    "stash",
		Title: "Second-level stash tier: gray-box vs naive admission",
		Columns: []string{"quota", "warm", "policy", "hits", "misses", "admits",
			"wasted", "wasted-rate", "writebacks", "off-hit"},
	}

	seedOf := func(ii int) uint64 { return 11000 + 131*uint64(ii) }
	// Every arm runs on the same base platform — corpus on the slow
	// disk, a backing file sized for the largest quota on the fast tier
	// — built once and forked per trial. All fixture files are
	// CreateSized, so the base stays snapshot-pure (zero I/O).
	rows := RunTrialsWithSnapshot(len(arms), func(seed uint64) *simos.System {
		s := buildStashSystem(sc, seed)
		ps := int64(s.PageSize())
		pool := poolBlocks(s)
		fileBlocks := (3*pool/2 + stashFiles - 1) / stashFiles
		for i := 0; i < stashFiles; i++ {
			_, err := s.FS(0).CreateSized(fmt.Sprintf("corpus.%d", i), fileBlocks*ps)
			mustNoErr(err)
		}
		maxQuota := int64(maxFrac * float64(pool))
		if maxQuota < 16 {
			maxQuota = 16
		}
		_, err := s.FS(1).CreateSized("stash0", maxQuota*ps)
		mustNoErr(err)
		return s
	}, seedOf, func(ii int, s *simos.System) []string {
		arm := arms[ii]
		seed := seedOf(ii)
		aud := s.EnableAudit()
		ps := int64(s.PageSize())
		pool := poolBlocks(s)
		fileBlocks := (3*pool/2 + stashFiles - 1) / stashFiles
		quota := int64(arm.frac * float64(pool))
		if quota < 16 {
			quota = 16
		}
		ops := 2 * quota
		if ops < 1000 {
			ops = 1000
		}
		if ops > 8000 {
			ops = 8000
		}
		offOps := ops / 5

		var got stash.Stats
		var offServed int64
		mustRun(s, "stash-trial", func(os *simos.OS) {
			// Warm phase: read the warm files straight through the OS so
			// their blocks are resident in the kernel cache before the
			// stash ever sees them.
			for i := 0; i < stashWarmFiles; i++ {
				fd, err := os.Open(fmt.Sprintf("corpus.%d", i))
				mustNoErr(err)
				mustNoErr(fd.Read(0, fd.Size()))
			}
			st, err := stash.New(os, stash.Config{
				Backing:     "/mnt1/stash0",
				QuotaBlocks: int(quota),
				GrayBox:     arm.gray,
			})
			mustNoErr(err)
			files := make([]*stash.File, stashFiles)
			for i := range files {
				files[i], err = st.Open(fmt.Sprintf("corpus.%d", i))
				mustNoErr(err)
			}
			// Aged start: preload half the quota from a prior life's
			// manifest (persistent-index reload, zero virtual time) —
			// the snapshot-era amortization every arm shares.
			pre := quota / 2
			man := make([]stash.BlockID, 0, pre)
			for i := int64(0); i < pre; i++ {
				f := files[i%stashFiles]
				man = append(man, stash.BlockID{Ino: f.Ino(), Page: i / stashFiles})
			}
			mustNoErr(st.Preload(man))

			// Online phase: skewed block reads. With probability
			// intensity a read targets the warm files; otherwise it is
			// uniform over the whole corpus.
			pick := func(rng *sm64) (int, int64) {
				fi := int(rng.next() % stashFiles)
				if float64(rng.next()>>11)/(1<<53) < arm.intensity {
					fi = int(rng.next() % stashWarmFiles)
				}
				return fi, int64(rng.next() % uint64(fileBlocks))
			}
			rng := sm64(seed)
			for op := int64(0); op < ops; op++ {
				fi, pg := pick(&rng)
				mustNoErr(files[fi].Read(pg*ps, ps))
			}
			// Write phase: dirty a few corpus.0 blocks through the stash
			// and flush, exercising write-back ordering (FLDC layout
			// order on the gray-box arm, FIFO on the naive arm).
			for w := 0; w < 64; w++ {
				pg := int64(rng.next() % uint64(fileBlocks))
				mustNoErr(files[0].Write(pg*ps, ps))
			}
			mustNoErr(st.Sync())

			// Degraded phase: the source goes away; replay the online
			// stream's prefix stash-only and count what survives.
			st.SetOffline(true)
			replay := sm64(seed)
			for op := int64(0); op < offOps; op++ {
				fi, pg := pick(&replay)
				switch err := files[fi].Read(pg*ps, ps); {
				case err == nil:
					offServed++
				case !stash.IsOfflineMiss(err):
					mustNoErr(err)
				}
			}
			st.SetOffline(false)
			got = st.Stats()
		})

		wasted, wrate := "-", "-"
		if r := aud.Report().Stash; r != nil {
			wasted = fmt.Sprintf("%d", r.Wasted)
			wrate = fmt.Sprintf("%.3f", r.WastedRate)
		}
		policy := "naive"
		if arm.gray {
			policy = "graybox"
		}
		return []string{
			fmt.Sprintf("%d", quota),
			fmt.Sprintf("%.2f", arm.intensity),
			policy,
			fmt.Sprintf("%d", got.Hits),
			fmt.Sprintf("%d", got.Misses),
			fmt.Sprintf("%d", got.Admits),
			wasted,
			wrate,
			fmt.Sprintf("%d", got.Writebacks),
			fmt.Sprintf("%.3f", float64(offServed)/float64(offOps)),
		}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("quota in blocks (fracs %v of the frame pool); warm = probability a read targets the OS-warmed quarter of the corpus", cfg.QuotaFracs)
	t.AddNote("wasted/wasted-rate are oracle-scored admissions of blocks the OS cache already held; off-hit = fraction of a degraded-mode replay served stash-only")
	return t
}
