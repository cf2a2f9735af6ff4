package energytrace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"neofog/internal/units"
)

// WriteCSV encodes a sampled trace as two-column CSV (time_us, power_mw)
// with a header row. The format round-trips through ReadCSV.
func WriteCSV(w io.Writer, tr *Sampled) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_us", "power_mw"}); err != nil {
		return err
	}
	for i, p := range tr.Samples {
		t := int64(tr.Step) * int64(i)
		rec := []string{
			strconv.FormatInt(t, 10),
			strconv.FormatFloat(float64(p), 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a trace written by WriteCSV. The sample step is inferred
// from the first two rows; a single-row trace is rejected because its step
// is ambiguous. Every power must be finite and non-negative.
func ReadCSV(r io.Reader) (*Sampled, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("energytrace: reading CSV: %w", err)
	}
	if len(rows) < 3 {
		return nil, fmt.Errorf("energytrace: trace CSV needs a header and at least 2 samples, got %d rows", len(rows))
	}
	rows = rows[1:] // drop header
	t0, err := strconv.ParseInt(rows[0][0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("energytrace: bad time %q: %w", rows[0][0], err)
	}
	t1, err := strconv.ParseInt(rows[1][0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("energytrace: bad time %q: %w", rows[1][0], err)
	}
	step := units.Duration(t1 - t0)
	if step <= 0 {
		return nil, fmt.Errorf("energytrace: non-increasing timestamps (%d then %d)", t0, t1)
	}
	tr := NewSampled(step, len(rows))
	for i, row := range rows {
		wantT := t0 + int64(step)*int64(i)
		gotT, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("energytrace: bad time %q: %w", row[0], err)
		}
		if gotT != wantT {
			return nil, fmt.Errorf("energytrace: irregular sampling at row %d: got t=%d, want %d", i+2, gotT, wantT)
		}
		p, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("energytrace: bad power %q: %w", row[1], err)
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("energytrace: non-finite power %q at row %d", row[1], i+2)
		}
		if p < 0 {
			return nil, fmt.Errorf("energytrace: negative power %g at row %d", p, i+2)
		}
		tr.Samples[i] = units.Power(p)
	}
	return tr, nil
}
