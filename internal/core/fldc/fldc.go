// Package fldc implements the File Layout Detector and Controller
// (Section 4.2): a gray-box ICL that orders file accesses by their
// probable on-disk layout, and controls layout by "refreshing" a
// directory — rewriting its files in a chosen order so that i-number
// order once again matches data-block order.
//
// Gray-box knowledge assumed (Section 4.2.1): the file system descends
// from FFS, so (a) files in one directory share a cylinder group, and
// (b) in a clean directory, creation order — observable through the
// i-number returned by stat() — matches data-block layout.
package fldc

import (
	"fmt"
	"sort"

	"graybox/internal/core/fccd"
	"graybox/internal/core/probe"
	"graybox/internal/fs"
	"graybox/internal/sim"
	"graybox/internal/simos"
	"graybox/internal/telemetry"
)

// Layer is the FLDC ICL bound to one process.
type Layer struct {
	os *simos.OS

	// meter is the shared probe layer timing the stat() probes; audit
	// hooks bill each ordering pass by cost delta.
	meter *probe.Meter
}

// New creates the layer.
func New(os *simos.OS) *Layer {
	return &Layer{
		os:    os,
		meter: probe.NewMeter(os, os.Telemetry().Histogram("fldc.stat_probe_ns", telemetry.LatencyBuckets)),
	}
}

// ProbeCost returns the layer's accumulated stat-probe cost.
func (l *Layer) ProbeCost() probe.Cost { return l.meter.Cost() }

// stat issues one stat() probe through the probe layer.
func (l *Layer) stat(path string) (st fs.Stat, err error) {
	start := l.meter.Begin()
	st, err = l.os.Stat(path)
	if err != nil {
		return st, err
	}
	l.meter.End(start)
	return st, nil
}

// fileInfo pairs a path with its i-number.
type fileInfo struct {
	path string
	ino  int64
}

func (l *Layer) statAll(paths []string) ([]fileInfo, error) {
	infos := make([]fileInfo, 0, len(paths))
	for _, p := range paths {
		st, err := l.stat(p)
		if err != nil {
			return nil, err
		}
		infos = append(infos, fileInfo{path: p, ino: int64(st.Ino)})
	}
	return infos, nil
}

// OrderByINumber stats every file and returns the paths sorted by
// i-number — the detector half of the layer. ("Sorting by i-number
// essentially obviates the need to sort by directory.")
func (l *Layer) OrderByINumber(paths []string) ([]string, error) {
	cost0 := l.meter.Cost()
	infos, err := l.statAll(paths)
	if err != nil {
		return nil, err
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].ino < infos[b].ino })
	out := make([]string, len(infos))
	for i, fi := range infos {
		out[i] = fi.path
	}
	delta := l.meter.Cost().Sub(cost0)
	l.os.Audit().FLDCOrder(out, delta.Probes, delta.NS)
	return out, nil
}

// OrderByMtime stats every file and returns the paths sorted by
// modification time — the LFS port the paper sketches in Section 4.2.5:
// "within LFS, the ICL could take advantage of the knowledge that
// writes that occur near one another in time lead to proximity in
// space". On a log-structured allocator, write order (mtime) predicts
// layout where i-numbers (which are reused) do not.
func (l *Layer) OrderByMtime(paths []string) ([]string, error) {
	cost0 := l.meter.Cost()
	type mt struct {
		path  string
		mtime sim.Time
		ino   int64
	}
	infos := make([]mt, 0, len(paths))
	for _, p := range paths {
		st, err := l.stat(p)
		if err != nil {
			return nil, err
		}
		infos = append(infos, mt{path: p, mtime: st.Mtime, ino: int64(st.Ino)})
	}
	sort.Slice(infos, func(a, b int) bool {
		if infos[a].mtime != infos[b].mtime {
			return infos[a].mtime < infos[b].mtime
		}
		return infos[a].ino < infos[b].ino
	})
	out := make([]string, len(infos))
	for i, fi := range infos {
		out[i] = fi.path
	}
	delta := l.meter.Cost().Sub(cost0)
	l.os.Audit().FLDCOrder(out, delta.Probes, delta.NS)
	return out, nil
}

// OrderByDirectory groups paths by their directory and returns them
// grouped (directories in first-appearance order, names untouched
// within a group) — the simpler heuristic the paper compares against.
func (l *Layer) OrderByDirectory(paths []string) []string {
	dirOf := func(p string) string {
		for i := len(p) - 1; i >= 0; i-- {
			if p[i] == '/' {
				return p[:i]
			}
		}
		return "."
	}
	var order []string
	groups := make(map[string][]string)
	for _, p := range paths {
		d := dirOf(p)
		if _, seen := groups[d]; !seen {
			order = append(order, d)
		}
		groups[d] = append(groups[d], p)
	}
	var out []string
	for _, d := range order {
		out = append(out, groups[d]...)
	}
	return out
}

// RefreshOrder selects how a refresh lays files out.
type RefreshOrder int

const (
	// BySize writes small files first, so that large files — whose
	// presence lowers the i-number/layout correlation — get the late
	// i-numbers and blocks (Section 4.2.1).
	BySize RefreshOrder = iota
	// ByName writes files in name order (a user-specified order).
	ByName
)

// copyChunk is the unit in which refresh copies file data.
const copyChunk = 1 << 20

// Refresh rewrites directory dir so the system returns to a known state
// where i-number order matches layout. The six steps of Section 4.2.2:
// create a temporary directory at the same level; sort the files; copy
// them over in sorted order; fix up times; delete the old directory;
// rename the temporary one into place.
func (l *Layer) Refresh(dir string, order RefreshOrder) error {
	return l.refresh(dir, order, CrashNone)
}

// refresh runs Refresh's six steps, stopping with an injected crash at
// the point crash names (repair.go); CrashNone runs them all.
func (l *Layer) refresh(dir string, order RefreshOrder, crash CrashPoint) error {
	os := l.os
	os.Proc().Track().Begin("icl", "fldc refresh")
	defer os.Proc().Track().End()
	names, err := os.Readdir(dir)
	if err != nil {
		return err
	}
	type entry struct {
		name         string
		size         int64
		atime, mtime sim.Time
	}
	files := make([]entry, 0, len(names))
	for _, n := range names {
		st, err := l.stat(dir + "/" + n)
		if err != nil {
			return err
		}
		files = append(files, entry{name: n, size: st.Size, atime: st.Atime, mtime: st.Mtime})
	}

	switch order {
	case ByName:
		sort.Slice(files, func(a, b int) bool { return files[a].name < files[b].name })
	default: // BySize, smallest first; names break ties deterministically
		sort.Slice(files, func(a, b int) bool {
			if files[a].size != files[b].size {
				return files[a].size < files[b].size
			}
			return files[a].name < files[b].name
		})
	}

	// Step 1: temporary directory at the same level.
	tmp := dir + refreshSuffix
	if err := os.Mkdir(tmp); err != nil {
		return fmt.Errorf("fldc: refresh: %w", err)
	}
	// Steps 2-4: copy in sorted order; restore times.
	for i, f := range files {
		if crash == CrashDuringCopy && i == len(files)/2 {
			return fmt.Errorf("%w during copy of %q", errCrash, f.name)
		}
		if err := l.copyFile(dir+"/"+f.name, tmp+"/"+f.name); err != nil {
			return err
		}
		if err := os.Utimes(tmp+"/"+f.name, f.atime, f.mtime); err != nil {
			return err
		}
	}
	// Step 5: delete the old directory.
	for _, f := range files {
		if err := os.Unlink(dir + "/" + f.name); err != nil {
			return err
		}
	}
	if err := os.Rmdir(dir); err != nil {
		return err
	}
	if crash == CrashAfterDelete {
		return fmt.Errorf("%w after delete, before rename", errCrash)
	}
	// Step 6: rename into place.
	return os.Rename(tmp, dir)
}

func (l *Layer) copyFile(src, dst string) error {
	os := l.os
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	size := in.Size()
	for off := int64(0); off < size; off += copyChunk {
		n := int64(copyChunk)
		if off+n > size {
			n = size - off
		}
		if err := in.Read(off, n); err != nil {
			return err
		}
		if err := out.Write(off, n); err != nil {
			return err
		}
	}
	return nil
}

// ComposeWithFCCD returns the best full ordering of paths (Section
// 4.2.4): probe every file with the FCCD, cluster the probe times into
// two groups with standard statistical clustering, and return the
// predicted-cached group first — each group internally sorted by
// i-number, since the cluster split may be wrong (e.g. when every file
// is on disk).
func (l *Layer) ComposeWithFCCD(d *fccd.Detector, paths []string) ([]string, error) {
	probes, err := d.OrderFiles(paths)
	if err != nil {
		return nil, err
	}
	// Cluster probe times with the shared bimodal splitter, minSep 0:
	// honor the raw 2-means split even when the separation is small,
	// because the i-number sort within each group makes a wrong split
	// cheap ("the cluster split may be wrong, e.g. when every file is on
	// disk").
	times := make([]float64, len(probes))
	for i, pr := range probes {
		times[i] = float64(pr.ProbeTime)
	}
	sp := probe.SplitBimodal(times, 0)
	group := func(idx []int) ([]string, error) {
		ps := make([]string, len(idx))
		for i, j := range idx {
			ps[i] = probes[j].Path
		}
		return l.OrderByINumber(ps)
	}
	fast, err := group(sp.Fast)
	if err != nil {
		return nil, err
	}
	slow, err := group(sp.Slow)
	if err != nil {
		return nil, err
	}
	return append(fast, slow...), nil
}
