package store

import (
	"encoding/json"
	"fmt"
	"path"
)

// The manifest is the log's sealed-segment catalog: a JSON file listing
// every segment that is complete, fsynced, and immutable. The active
// (tail) segment is by definition not in it — recovery finds it by
// scanning the directory for segment files past the last sealed seq.
//
// The manifest is replaced atomically: written to MANIFEST.tmp, file-
// fsynced, renamed over MANIFEST, directory-fsynced. A crash at any
// point leaves either the old or the new manifest, never a partial
// one; a crash that loses the rename (the fault injector's
// "reordered-after-crash files" mode) leaves an older manifest plus
// sealed-but-unlisted segment files, which recovery re-adopts by the
// same directory scan that finds the active segment.
const (
	manifestName = "MANIFEST"
	manifestTmp  = "MANIFEST.tmp"
)

// SegmentInfo describes one sealed segment.
type SegmentInfo struct {
	Name     string `json:"name"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	Bytes    int64  `json:"bytes"`
}

type manifest struct {
	Sealed []SegmentInfo `json:"sealed"`
	// TruncatedTo is the retention horizon: no seq below it is part of
	// the log, even if a crash resurrects a removed segment file
	// (TruncateFront's removes are not followed by a directory fsync).
	// Without it, truncating away *every* sealed segment would leave an
	// empty manifest that says "the log starts at seq 1", and recovery
	// would re-adopt a resurrected pre-truncation segment as the log —
	// then discard the real active tail as a gap. 0 = never truncated.
	TruncatedTo uint64 `json:"truncated_to,omitempty"`
}

// loadManifest reads dir's manifest; an absent manifest is an empty
// log, not an error.
func loadManifest(fs FS, dir string) (manifest, error) {
	var m manifest
	f, err := fs.Open(path.Join(dir, manifestName))
	if err != nil {
		return m, nil // no manifest yet
	}
	defer f.Close()
	data, err := readAll(f)
	if err != nil {
		return m, fmt.Errorf("read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("parse manifest: %w", err)
	}
	for i := 1; i < len(m.Sealed); i++ {
		if m.Sealed[i].FirstSeq != m.Sealed[i-1].LastSeq+1 {
			return m, fmt.Errorf("manifest: segment %s not contiguous with %s",
				m.Sealed[i].Name, m.Sealed[i-1].Name)
		}
	}
	return m, nil
}

// writeManifest atomically replaces dir's manifest.
func writeManifest(fs FS, dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path.Join(dir, manifestTmp)
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("create manifest tmp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("write manifest tmp: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync manifest tmp: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close manifest tmp: %w", err)
	}
	if err := fs.Rename(tmp, path.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("rename manifest: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("sync dir after manifest rename: %w", err)
	}
	return nil
}

// checkSealed is the one comparison of a sealed segment's bytes with
// its manifest entry: every frame must verify, and there must be exactly
// as many as the entry's seq range holds. The verified frame boundaries
// come back either way.
func checkSealed(s SegmentInfo, data []byte) ([]int64, error) {
	offs, torn := scanFrames(data)
	n := uint64(len(offs) - 1)
	if torn {
		return offs, fmt.Errorf("sealed segment torn at offset %d", offs[n])
	}
	if want := s.LastSeq - s.FirstSeq + 1; n != want {
		return offs, fmt.Errorf("%d records, manifest says %d", n, want)
	}
	return offs, nil
}

// readFile reads one whole file of fs.
func readFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	data, err := readAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return data, err
}

// readAll reads a File front to back via ReadAt (the File interface
// carries no io.Reader contract about the current offset).
func readAll(f File) ([]byte, error) {
	size, err := f.Seek(0, 2)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if size == 0 {
		return buf, nil
	}
	n, err := f.ReadAt(buf, 0)
	if int64(n) == size {
		return buf, nil
	}
	return nil, err
}
