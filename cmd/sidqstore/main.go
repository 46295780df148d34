// Command sidqstore inspects a sidq durable data directory (the
// segmented WAL written by sidqserve -data, see internal/store):
//
//	sidqstore verify /var/lib/sidq
//
// verify prints the plan recovery would apply to the directory, read-only
// — it is safe to run against a live server or a freshly crashed
// directory. Recovery and verify share that plan: which files are stale,
// which unlisted segments recovery re-adopts, where the torn tail is cut
// and which segments past a tear or a gap it removes. On top of it,
// sealed segments are checked record-by-record against their checksums
// and the manifest's seq ranges, which recovery takes on trust. The
// report ends with the last durable sequence number and its
// "segment:offset" position. Exit status 0 means the directory is intact
// up to (at most) a recoverable torn tail; anything recovery would have
// to discard or that violates the manifest exits 1, and so does a
// directory recovery could not plan at all (an unreadable manifest or
// directory).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"sidq/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: sidqstore <command> [arguments]

commands:
  verify [-v] <dir>   check segment checksums and manifest integrity,
                      report the last durable offset
`

// run executes one sidqstore command and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	switch args[0] {
	case "verify":
		return runVerify(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "sidqstore: unknown command %q\n%s", args[0], usage)
		return 2
	}
}

func runVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print per-segment detail even for clean segments")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil || fs.NArg() != 1 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	dir := fs.Arg(0)

	rep, err := store.Verify(dir, nil)
	if err != nil {
		fmt.Fprintf(stderr, "sidqstore: verify %s: %v\n", dir, err)
		return 1
	}
	for _, s := range rep.Segments {
		if !*verbose && s.Problem == "" {
			continue
		}
		role := "tail"
		if s.Sealed {
			role = "sealed"
		}
		line := fmt.Sprintf("%s  %-6s %6d records  %8d bytes", s.Name, role, s.Records, s.Bytes)
		if s.Torn {
			line += fmt.Sprintf("  torn at %d", s.Good)
		}
		if s.Problem != "" {
			line += "  PROBLEM: " + s.Problem
		}
		fmt.Fprintln(stdout, line)
	}
	if rep.TornBytes > 0 {
		fmt.Fprintf(stdout, "torn tail: %d bytes (next recovery truncates them)\n", rep.TornBytes)
	}
	if rep.LastSeq == 0 {
		fmt.Fprintln(stdout, "durable records: none")
	} else {
		fmt.Fprintf(stdout, "last durable seq: %d at %s\n", rep.LastSeq, rep.DurableOff)
	}
	if !rep.OK() {
		for _, p := range rep.Problems {
			fmt.Fprintf(stderr, "sidqstore: %s\n", p)
		}
		fmt.Fprintf(stdout, "%s: %d problems\n", dir, len(rep.Problems))
		return 1
	}
	fmt.Fprintf(stdout, "%s: ok (%d segments)\n", dir, len(rep.Segments))
	return 0
}
