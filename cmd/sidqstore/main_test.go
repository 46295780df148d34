package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sidq/internal/store"
)

// writeLog fills a fresh data directory with n records over small
// segments and closes it cleanly.
func writeLog(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	l, _, err := store.Open(dir, store.Options{Fsync: store.FsyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte{byte('a' + i%26)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func verify(t *testing.T, dir string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run([]string{"verify", dir}, &out, &errb)
	return code, out.String(), errb.String()
}

func TestVerifyExitStatus(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		dir := writeLog(t, 30)
		code, out, errs := verify(t, dir)
		if code != 0 || !strings.Contains(out, dir+": ok") || !strings.Contains(out, "last durable seq: 30 ") {
			t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errs)
		}
	})
	t.Run("torn tail", func(t *testing.T) {
		dir := writeLog(t, 30)
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
		if err != nil || len(segs) < 2 {
			t.Fatalf("segments %v, %v", segs, err)
		}
		// What a crash mid-append leaves: half a frame behind the last
		// good one in the active segment.
		f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{40, 0, 0, 0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		code, out, errs := verify(t, dir)
		if code != 0 || !strings.Contains(out, "torn tail: 7 bytes") || !strings.Contains(out, "last durable seq: 30 ") {
			t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errs)
		}
	})
	t.Run("missing sealed segment", func(t *testing.T) {
		dir := writeLog(t, 30)
		first := filepath.Join(dir, "seg-00000000000000000001.wal")
		if err := os.Remove(first); err != nil {
			t.Fatal(err)
		}
		code, out, errs := verify(t, dir)
		if code != 1 || !strings.Contains(errs, "sealed segment missing") {
			t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errs)
		}
	})
}
