package fldc

import (
	"errors"
	"strings"

	"graybox/internal/simos"
)

// The paper's footnote 4: "There are issues of atomicity in the refresh
// operation, in particular when a crash occurs after the delete but
// before or in the midst of the rename. We envision a nightly script
// that looks for a certain directory signature and patches up problems."
//
// This file implements that script (RepairRefresh) plus a crash-injected
// refresh (RefreshWithCrash, Refresh's own steps with two crash points)
// so the recovery path can be tested: the temporary directory's
// ".gbrefresh" suffix is the signature.

// refreshSuffix marks an in-progress refresh directory.
const refreshSuffix = ".gbrefresh"

// CrashPoint selects where an injected crash interrupts a refresh.
type CrashPoint int

const (
	// CrashNone runs to completion.
	CrashNone CrashPoint = iota
	// CrashDuringCopy stops partway through copying into the temp dir.
	CrashDuringCopy
	// CrashAfterDelete stops after the old directory was removed but
	// before the rename — the dangerous window of footnote 4.
	CrashAfterDelete
)

// errCrash distinguishes the injected crash from real failures.
var errCrash = errors.New("fldc: injected crash")

// RefreshWithCrash is Refresh with fault injection for testing the
// repair script. It returns an error wrapping errCrash at the requested
// point; the file system is left exactly as a real crash would leave it
// (modulo the write-behind cache, which tests flush or drop).
func (l *Layer) RefreshWithCrash(dir string, order RefreshOrder, crash CrashPoint) error {
	return l.refresh(dir, order, crash)
}

// IsInjectedCrash reports whether err came from RefreshWithCrash's fault
// injection.
func IsInjectedCrash(err error) bool { return errors.Is(err, errCrash) }

// RepairReport describes what the nightly repair script found and did.
type RepairReport struct {
	// Scanned is the number of directory entries examined.
	Scanned int
	// Completed lists refreshes that were rolled forward (the original
	// directory was already deleted; the temp directory was complete).
	Completed []string
	// RolledBack lists refreshes that were abandoned (the original
	// directory still existed; the partial temp directory was removed).
	RolledBack []string
}

// RepairRefresh is the nightly patch-up script: it scans parent for the
// refresh signature and finishes or rolls back each interrupted
// refresh. The rule is simple and safe:
//
//   - original missing  -> the refresh had passed its delete step, so
//     the temp copy is authoritative: rename it into place (roll
//     forward).
//   - original present  -> the refresh never reached the delete, so the
//     original is authoritative: remove the temp copy (roll back).
func RepairRefresh(os *simos.OS, parent string) (RepairReport, error) {
	var rep RepairReport
	subdirs, err := listSubdirs(os, parent)
	if err != nil {
		return rep, err
	}
	for _, name := range subdirs {
		rep.Scanned++
		if !strings.HasSuffix(name, refreshSuffix) {
			continue
		}
		orig := strings.TrimSuffix(name, refreshSuffix)
		tmpPath := joinPath(parent, name)
		origPath := joinPath(parent, orig)
		if dirExists(os, origPath) {
			// Roll back: delete the partial temp directory.
			files, err := os.Readdir(tmpPath)
			if err != nil {
				return rep, err
			}
			for _, f := range files {
				if err := os.Unlink(tmpPath + "/" + f); err != nil {
					return rep, err
				}
			}
			if err := os.Rmdir(tmpPath); err != nil {
				return rep, err
			}
			rep.RolledBack = append(rep.RolledBack, orig)
			continue
		}
		// Roll forward: the temp directory is the complete new copy.
		if err := os.Rename(tmpPath, origPath); err != nil {
			return rep, err
		}
		rep.Completed = append(rep.Completed, orig)
	}
	return rep, nil
}

// listSubdirs enumerates subdirectory names of parent. The simos facade
// only lists files via Readdir, so this probes known signatures by
// attempting directory reads; to keep the repair script honest it
// instead relies on ReaddirDirs.
func listSubdirs(os *simos.OS, parent string) ([]string, error) {
	return os.ReaddirDirs(parent)
}

func joinPath(parent, name string) string {
	if parent == "" || parent == "/" {
		return name
	}
	return parent + "/" + name
}

func dirExists(os *simos.OS, path string) bool {
	_, err := os.Readdir(path)
	return err == nil
}
