package store

import (
	"fmt"
	"path"
	"slices"
)

// A plan is what a data directory holds, decided read-only from its
// manifest and its files. It is the single place that decides it: Open
// applies the plan (recover), Verify reports it, so what Verify predicts
// is what Open does.
type plan struct {
	m       manifest
	missing []string      // listed sealed segments with no file: Open refuses the directory
	stale   []string      // files recovery removes: tmp manifests, segments below the horizon
	tail    []tailSegment // unlisted segments at or past the horizon, in seq order
	info    RecoveryInfo  // what Open returns once the plan is applied
}

// tailRole is what recovery does with one segment of the unlisted tail.
type tailRole uint8

const (
	adopted     tailRole = iota // complete and followed by more tail: its seal's manifest commit was lost
	active                      // where appends resume, cut to its verified frames if torn
	gapped                      // not contiguous with the log: removed, with everything after it
	unreachable                 // past a tear or a gap: removed
)

// tailSegment is one segment of the unlisted tail as the plan found it.
type tailSegment struct {
	name  string
	first uint64
	role  tailRole
	size  int64   // file bytes
	offs  []int64 // verified frame boundaries; the last is the good length
	torn  bool    // bytes past the good length do not verify
	err   error   // a segment recovery removes could not be read; reported, not fatal
}

func (t *tailSegment) records() int { return len(t.offs) - 1 }
func (t *tailSegment) good() int64  { return t.offs[len(t.offs)-1] }

// readPlan loads dir's manifest, sorts every file into sealed, stale and
// tail, and walks the tail in seq order the way recovery resumes the log:
// contiguous complete segments followed by more tail are adopted, the
// last one or the first torn one is the active segment, and everything
// after it, or from the first segment that does not continue the log,
// is unreachable. Segments recovery removes are read too, for Verify's
// report. It changes nothing on disk.
func readPlan(fs FS, dir string) (*plan, error) {
	m, err := loadManifest(fs, dir)
	if err != nil {
		return nil, err
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("readdir %s: %w", dir, err)
	}
	p := &plan{m: m}
	listed := make(map[string]bool, len(m.Sealed))
	for _, s := range m.Sealed {
		listed[s.Name] = true
	}
	// Nothing below the truncation horizon is part of the log, even if a
	// crash resurrected removed segment files below it.
	next := max(1, m.TruncatedTo)
	if n := len(m.Sealed); n > 0 {
		next = m.Sealed[n-1].LastSeq + 1
	}
	present := make(map[string]bool, len(names))
	var tail []uint64
	for _, name := range names {
		present[name] = true
		if name == manifestName || listed[name] {
			continue
		}
		if seq, ok := parseSegmentName(name); ok && seq >= next {
			tail = append(tail, seq)
		} else {
			p.stale = append(p.stale, name)
		}
	}
	for _, s := range m.Sealed {
		if !present[s.Name] {
			p.missing = append(p.missing, s.Name)
		}
	}
	slices.Sort(tail)
	p.info.StaleFiles = len(p.stale)

	ended := false
	for i, first := range tail {
		t := tailSegment{name: segmentName(first), first: first, role: adopted}
		switch {
		case ended:
			t.role = unreachable
		case first != next:
			t.role, ended = gapped, true
		}
		switch data, err := readFile(fs, path.Join(dir, t.name)); {
		case err != nil && t.role == adopted:
			return nil, fmt.Errorf("read %s: %w", t.name, err)
		case err != nil:
			t.err, t.offs = err, []int64{0}
		default:
			t.size = int64(len(data))
			t.offs, t.torn = scanFrames(data)
		}
		if t.role != adopted {
			p.info.DiscardedSegments++
			p.tail = append(p.tail, t)
			continue
		}
		p.info.Records += t.records()
		next = first + uint64(t.records())
		if t.torn || i == len(tail)-1 {
			t.role, ended = active, true
			if t.torn {
				p.info.TornBytes = t.size - t.good()
			}
		} else {
			p.info.AdoptedSegments++
		}
		p.tail = append(p.tail, t)
	}
	p.info.LastSeq = next - 1
	return p, nil
}

// SegmentReport is one segment's health in a VerifyReport.
type SegmentReport struct {
	Name     string
	Sealed   bool   // listed in the manifest
	FirstSeq uint64 // from the name
	Records  int    // verified records
	Bytes    int64  // file size
	Good     int64  // bytes of verified records
	Torn     bool   // data past Good failed to verify
	Problem  string // non-empty = integrity violation beyond a recoverable tail
}

// VerifyReport is the operator-facing integrity summary of a log
// directory.
type VerifyReport struct {
	Segments   []SegmentReport
	LastSeq    uint64 // last seq recovery would yield
	DurableOff string // "segment:offset" of the durable end
	TornBytes  int64  // tail bytes recovery would truncate
	Problems   []string
	// Recovery is what Open would return for the directory as it is now
	// (when Problems name no missing sealed segment, which Open refuses).
	Recovery RecoveryInfo
}

// OK reports whether the directory is fully intact up to (at most) a
// recoverable torn tail.
func (r VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Verify reports, read-only, the plan Open would apply to a log
// directory, and checks what recovery takes on trust: every sealed
// segment's checksums and record count against its manifest entry.
// Nothing is modified, so Verify is safe on a live or a freshly crashed
// directory. It fails where Open could not make a plan either: a
// manifest that does not parse, a directory that cannot be listed, a
// tail segment recovery would keep that cannot be read.
func Verify(dir string, fs FS) (VerifyReport, error) {
	if fs == nil {
		fs = OSFS{}
	}
	var rep VerifyReport
	p, err := readPlan(fs, dir)
	if err != nil {
		return rep, fmt.Errorf("store: %w", err)
	}
	add := func(sr SegmentReport) {
		if sr.Problem != "" {
			rep.Problems = append(rep.Problems, sr.Name+": "+sr.Problem)
		}
		rep.Segments = append(rep.Segments, sr)
	}
	for _, s := range p.m.Sealed {
		sr := SegmentReport{Name: s.Name, Sealed: true, FirstSeq: s.FirstSeq}
		if slices.Contains(p.missing, s.Name) {
			sr.Problem = "sealed segment missing"
		} else if data, err := readFile(fs, path.Join(dir, s.Name)); err != nil {
			sr.Problem = fmt.Sprintf("read: %v", err)
		} else {
			offs, err := checkSealed(s, data)
			sr.Records, sr.Bytes, sr.Good = len(offs)-1, int64(len(data)), offs[len(offs)-1]
			sr.Torn = sr.Good < sr.Bytes
			if err != nil {
				sr.Problem = err.Error()
			}
		}
		add(sr)
		rep.DurableOff = fmt.Sprintf("%s:%d", s.Name, s.Bytes)
	}
	for _, name := range p.stale {
		rep.Problems = append(rep.Problems, name+": stale file (removed by next recovery)")
	}
	for _, t := range p.tail {
		sr := SegmentReport{Name: t.name, FirstSeq: t.first, Records: t.records(), Bytes: t.size, Good: t.good(), Torn: t.torn}
		switch {
		case t.err != nil:
			sr.Problem = fmt.Sprintf("read: %v", t.err)
		case t.role == gapped:
			sr.Problem = fmt.Sprintf("gap: starts at seq %d, want %d", t.first, p.info.LastSeq+1)
		case t.role == unreachable:
			sr.Problem = "unreachable (past a tear or gap; removed by next recovery)"
		default:
			rep.DurableOff = fmt.Sprintf("%s:%d", t.name, t.good())
		}
		add(sr)
	}
	rep.LastSeq, rep.TornBytes, rep.Recovery = p.info.LastSeq, p.info.TornBytes, p.info
	return rep, nil
}
