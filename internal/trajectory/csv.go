package trajectory

// The "id,t,x,y" wire codec: ScanCSV is the only decoder of a point row
// and AppendCSVRow the only encoder; ReadCSVColumns, WriteCSV and every
// point route of internal/server are thin callers of the two. Their
// floats go through float.go, strconv's bytes and bits with integers
// and short decimals taken on an exact fast path.

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// CSVHeader is the header line WriteCSV starts with.
const CSVHeader = "id,t,x,y\n"

// RowFlushBytes is how many bytes of encoded rows a writer accumulates
// before it writes them out: large enough that a response is a handful
// of writes, small enough that a wide result never holds more than this
// in memory.
const RowFlushBytes = 32 << 10

// ScanCSV hands each "id,t,x,y" row of data to row; the first error,
// its own or row's, ends the scan. It accepts what an encoding/csv
// Reader with FieldsPerRecord = 4 accepts and parses t, x and y as
// strconv.ParseFloat does, so NaN and ±Inf pass: refusing them is up
// to row.
//
// With needHeader the first row must be a header, any row whose first
// field is "id". Without it the first row is skipped only when it is
// exactly "id,t,x,y"; a source that happens to be named id is data.
//
// A body without a double quote is split in place and the id handed to
// row aliases data: a caller that keeps ids clones each distinct one.
// A body with a quote anywhere goes through encoding/csv, which alone
// knows escaped quotes and line breaks inside a field (DESIGN.md, Wire
// codec, says why that path stays).
func ScanCSV(data []byte, needHeader bool, row func(id string, t, x, y float64) error) error {
	first := true
	record := func(f *[4]string) error {
		if first {
			first = false
			if needHeader && f[0] != "id" {
				return fmt.Errorf("unexpected csv header %v", f[:])
			}
			if needHeader || *f == [4]string{"id", "t", "x", "y"} {
				return nil
			}
		}
		var v [3]float64
		for k := range v {
			var err error
			if v[k], err = parseFloat(f[k+1]); err != nil {
				return fmt.Errorf("bad %c %q: %w", "txy"[k], f[k+1], err)
			}
		}
		return row(f[0], v[0], v[1], v[2])
	}
	if bytes.IndexByte(data, '"') >= 0 {
		cr := csv.NewReader(bytes.NewReader(data))
		cr.FieldsPerRecord = 4
		cr.ReuseRecord = true
		for {
			rec, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("read csv: %w", err)
			}
			if err := record((*[4]string)(rec)); err != nil {
				return err
			}
		}
	} else {
		var f [4]string
		rest := unsafe.String(unsafe.SliceData(data), len(data))
		for lineNo := 1; rest != ""; lineNo++ {
			var line string
			line, rest, _ = strings.Cut(rest, "\n")
			line = strings.TrimSuffix(line, "\r") // as csv.Reader strips it
			if line == "" {
				continue // blank line, as csv.Reader skips
			}
			if !splitCSVLine(line, &f) {
				return fmt.Errorf("read csv: record on line %d: wrong number of fields", lineNo)
			}
			if err := record(&f); err != nil {
				return err
			}
		}
	}
	if first && needHeader {
		return errors.New("read csv: no header")
	}
	return nil
}

// splitCSVLine splits an unquoted CSV line into f, and reports whether
// it had exactly 4 fields.
func splitCSVLine(line string, f *[4]string) (ok bool) {
	for k := range f[:3] {
		if f[k], line, ok = strings.Cut(line, ","); !ok {
			return false
		}
	}
	f[3] = line
	return !strings.Contains(line, ",")
}

// ParseCSV decodes a header-led "id,t,x,y" body into trajectories: rows
// grouped by id in first-appearance order, each group time-sorted.
// The result holds no reference to data.
func ParseCSV(data []byte) ([]*Trajectory, error) {
	g, err := ParseCSVGroups(data)
	if err != nil {
		return nil, err
	}
	return g.Trajectories(), nil
}

// ParseCSVGroups is ParseCSV for a caller that hands the parsed points
// back: the grouper's Trajectories are ParseCSV's result, and its
// Release returns their memory to the pool. A parse that fails
// releases the grouper itself.
func ParseCSVGroups(data []byte) (*Grouper, error) {
	// A row is a line, and none is shorter than ",0,0,0\n": the second
	// bound keeps a body of blank lines from sizing a scratch of 32
	// bytes a byte.
	g := NewGrouper(min(bytes.Count(data, []byte{'\n'}), len(data)/7) + 1)
	err := ScanCSV(data, true, func(id string, t, x, y float64) error {
		g.Add(id, t, x, y)
		return nil
	})
	if err != nil {
		g.Release()
		return nil, fmt.Errorf("trajectory: %w", err)
	}
	return g, nil
}

// ReadCSVColumns is ParseCSV over everything r yields. The name is
// older than the decoder: nothing columnar is left behind it, but the
// serving benchmark calls it by this name, so it stays until the
// benchmark is next changed (ROADMAP item 1).
func ReadCSVColumns(r io.Reader) ([]*Trajectory, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trajectory: read csv: %w", err)
	}
	return ParseCSV(data)
}

// AppendCSVField appends s as one CSV field, quoted exactly when and
// how an encoding/csv Writer quotes it: a field holding a comma, a
// quote, \r or \n, starting with a space, or equal to `\.` is wrapped
// in quotes with every inner quote doubled.
func AppendCSVField(dst []byte, s string) []byte {
	r0, _ := utf8.DecodeRuneInString(s)
	if s == "" || s != `\.` && !strings.ContainsAny(s, ",\"\r\n") && !unicode.IsSpace(r0) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, s[i])
	}
	return append(dst, '"')
}

// AppendCSVRow appends one "id,t,x,y" line. idField is the id's field
// literal from AppendCSVField, computed once per id, not per row;
// floats take their shortest round-tripping form, strconv's 'g', -1
// bytes (AppendFloat).
func AppendCSVRow(dst, idField []byte, t, x, y float64) []byte {
	dst = append(append(dst, idField...), ',')
	dst = append(AppendFloat(dst, t, 'g'), ',')
	dst = append(AppendFloat(dst, x, 'g'), ',')
	return append(AppendFloat(dst, y, 'g'), '\n')
}

// csvSlabs recycles WriteCSV's row slabs: a slab and a row to spare. A
// slab a very long id grew past twice that is left to the GC.
var csvSlabs = sync.Pool{New: func() any { b := make([]byte, 0, csvSlabBytes); return &b }}

const csvSlabBytes = RowFlushBytes + 1024

// WriteCSV encodes trajectories as CSV rows "id,t,x,y" with a header.
// Points are written in trajectory order.
func WriteCSV(w io.Writer, trs []*Trajectory) error {
	slab := csvSlabs.Get().(*[]byte)
	buf := append((*slab)[:0], CSVHeader...)
	defer func() {
		if cap(buf) <= 2*csvSlabBytes {
			*slab = buf[:0] // an io.Writer keeps no view of what it is given
			csvSlabs.Put(slab)
		}
	}()
	var id []byte
	for _, tr := range trs {
		id = AppendCSVField(id[:0], tr.ID)
		for _, p := range tr.Points {
			buf = AppendCSVRow(buf, id, p.T, p.Pos.X, p.Pos.Y)
			if len(buf) >= RowFlushBytes {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	_, err := w.Write(buf)
	return err
}
