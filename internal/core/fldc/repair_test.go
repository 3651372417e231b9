package fldc

import (
	"fmt"
	"testing"

	"graybox/internal/sim"
	"graybox/internal/simos"
)

// setupAged creates an aged directory "work" with n files under parent.
func setupAged(t *testing.T, s *simos.System, os *simos.OS, n int) {
	t.Helper()
	if err := os.Mkdir("work"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		fd, err := os.Create(fmt.Sprintf("work/f%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := fd.Write(0, int64(i%3+1)*4096); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRefreshWithCrashNone(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		setupAged(t, s, os, 10)
		l := New(os)
		if err := l.RefreshWithCrash("work", BySize, CrashNone); err != nil {
			t.Fatal(err)
		}
		names, _ := os.Readdir("work")
		if len(names) != 10 {
			t.Errorf("files = %d after clean refresh", len(names))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mtimes returns the modification time of each file in dir, by name.
func mtimes(t *testing.T, os *simos.OS, dir string) map[string]sim.Time {
	t.Helper()
	names, err := os.Readdir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]sim.Time, len(names))
	for _, n := range names {
		st, err := os.Stat(dir + "/" + n)
		if err != nil {
			t.Fatal(err)
		}
		m[n] = st.Mtime
	}
	return m
}

// TestCrashRefreshKeepsTimes: a crash-injected refresh that runs to the
// end, and one that crashes after its delete step and is rolled forward
// by the repair script, fix up every file's times as Refresh does (step
// 4); otherwise make(1) would rebuild everything the refresh touched.
func TestCrashRefreshKeepsTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash CrashPoint
	}{{"none", CrashNone}, {"after-delete", CrashAfterDelete}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSys()
			err := s.Run("t", func(os *simos.OS) {
				setupAged(t, s, os, 10)
				before := mtimes(t, os, "work")
				// Let the clock move on, so a rewritten file's own mtime
				// differs from the one it should keep.
				os.Proc().Sleep(sim.Second)
				err := New(os).RefreshWithCrash("work", BySize, tc.crash)
				if tc.crash == CrashNone && err != nil {
					t.Fatal(err)
				}
				if tc.crash != CrashNone {
					if !IsInjectedCrash(err) {
						t.Fatalf("expected injected crash, got %v", err)
					}
					if _, err := RepairRefresh(os, ""); err != nil {
						t.Fatal(err)
					}
				}
				after := mtimes(t, os, "work")
				lost := 0
				for n, mt := range before {
					if after[n] != mt {
						lost++
					}
				}
				if lost > 0 || len(after) != len(before) {
					t.Errorf("%d of %d files lost their mtime (%d files after)", lost, len(before), len(after))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCrashDuringCopyThenRepairRollsBack(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		setupAged(t, s, os, 10)
		l := New(os)
		err := l.RefreshWithCrash("work", BySize, CrashDuringCopy)
		if !IsInjectedCrash(err) {
			t.Fatalf("expected injected crash, got %v", err)
		}
		// The crash left a partial temp directory and an intact
		// original.
		if _, err := os.Readdir("work.gbrefresh"); err != nil {
			t.Fatal("temp directory missing after crash")
		}
		rep, err := RepairRefresh(os, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.RolledBack) != 1 || rep.RolledBack[0] != "work" {
			t.Errorf("repair report = %+v, want rollback of work", rep)
		}
		// Original intact, temp gone.
		names, _ := os.Readdir("work")
		if len(names) != 10 {
			t.Errorf("original has %d files after rollback", len(names))
		}
		if _, err := os.Readdir("work.gbrefresh"); err == nil {
			t.Error("temp directory survived repair")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrashAfterDeleteThenRepairRollsForward(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		setupAged(t, s, os, 10)
		l := New(os)
		err := l.RefreshWithCrash("work", BySize, CrashAfterDelete)
		if !IsInjectedCrash(err) {
			t.Fatalf("expected injected crash, got %v", err)
		}
		// The dangerous window: the original is gone, only the temp
		// directory holds the data.
		if _, err := os.Readdir("work"); err == nil {
			t.Fatal("original directory still present; crash not in window")
		}
		rep, err := RepairRefresh(os, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Completed) != 1 || rep.Completed[0] != "work" {
			t.Errorf("repair report = %+v, want roll-forward of work", rep)
		}
		names, err := os.Readdir("work")
		if err != nil {
			t.Fatalf("directory unreachable after roll-forward: %v", err)
		}
		if len(names) != 10 {
			t.Errorf("files = %d after roll-forward, want 10", len(names))
		}
		// And the layout is fresh: i-number order == block order.
		ordered, err := New(os).OrderByINumber(prefixAll("work/", names))
		if err != nil {
			t.Fatal(err)
		}
		var last int64 = -1
		for _, p := range ordered {
			blocks, _ := s.FS(0).BlocksOf(p)
			if len(blocks) > 0 {
				if blocks[0] <= last {
					t.Fatalf("layout not fresh after roll-forward at %s", p)
				}
				last = blocks[0]
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepairIdempotentAndSelective(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		setupAged(t, s, os, 6)
		// An unrelated healthy directory must be untouched.
		os.Mkdir("healthy")
		os.Create("healthy/x")
		rep, err := RepairRefresh(os, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Completed)+len(rep.RolledBack) != 0 {
			t.Errorf("repair acted on a healthy tree: %+v", rep)
		}
		// Crash, repair, repair again: second run is a no-op.
		l := New(os)
		if err := l.RefreshWithCrash("work", BySize, CrashAfterDelete); !IsInjectedCrash(err) {
			t.Fatal(err)
		}
		if _, err := RepairRefresh(os, ""); err != nil {
			t.Fatal(err)
		}
		rep2, err := RepairRefresh(os, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep2.Completed)+len(rep2.RolledBack) != 0 {
			t.Errorf("second repair was not a no-op: %+v", rep2)
		}
		if _, err := os.Readdir("healthy"); err != nil {
			t.Error("healthy directory damaged")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
