package simulate

import (
	"fmt"
	"math"
	"math/rand"

	"sidq/internal/geo"
	"sidq/internal/stid"
)

// Field is a smooth synthetic spatiotemporal scalar field (e.g. an air
// quality surface): a sum of Gaussian spatial bumps whose amplitudes
// oscillate over time, plus a global diurnal component. The field is
// spatially autocorrelated and varies smoothly — the two Table-1
// characteristics interpolation methods rely on.
type Field struct {
	bumps   []fieldBump
	base    float64
	diurnal float64 // amplitude of the shared daily cycle
	period  float64 // seconds per cycle
}

type fieldBump struct {
	center geo.Point
	sigma  float64
	amp    float64
	phase  float64
}

// FieldOptions configures the synthetic field generator.
type FieldOptions struct {
	Bounds   geo.Rect
	NumBumps int     // spatial structure complexity (default 6)
	Base     float64 // mean level (default 50)
	Amp      float64 // bump amplitude scale (default 30)
	Diurnal  float64 // daily-cycle amplitude (default 10)
	Period   float64 // cycle length in seconds (default 86400)
	Seed     int64
}

// NewField generates a random smooth field inside opt.Bounds.
func NewField(opt FieldOptions) *Field {
	if opt.NumBumps <= 0 {
		opt.NumBumps = 6
	}
	if opt.Base == 0 {
		opt.Base = 50
	}
	if opt.Amp == 0 {
		opt.Amp = 30
	}
	if opt.Diurnal == 0 {
		opt.Diurnal = 10
	}
	if opt.Period <= 0 {
		opt.Period = 86400
	}
	if opt.Bounds.IsEmpty() || opt.Bounds.Area() == 0 {
		opt.Bounds = geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	f := &Field{base: opt.Base, diurnal: opt.Diurnal, period: opt.Period}
	extent := math.Max(opt.Bounds.Width(), opt.Bounds.Height())
	for i := 0; i < opt.NumBumps; i++ {
		f.bumps = append(f.bumps, fieldBump{
			center: geo.Pt(
				opt.Bounds.Min.X+rng.Float64()*opt.Bounds.Width(),
				opt.Bounds.Min.Y+rng.Float64()*opt.Bounds.Height(),
			),
			sigma: extent * (0.1 + 0.2*rng.Float64()),
			amp:   opt.Amp * (rng.Float64()*2 - 1),
			phase: rng.Float64() * 2 * math.Pi,
		})
	}
	return f
}

// Value returns the true field value at position p and time t.
func (f *Field) Value(p geo.Point, t float64) float64 {
	v := f.base + f.diurnal*math.Sin(2*math.Pi*t/f.period)
	for _, b := range f.bumps {
		if b.sigma <= 0 {
			continue
		}
		d2 := p.DistSq(b.center)
		osc := 1 + 0.3*math.Sin(2*math.Pi*t/f.period+b.phase)
		v += b.amp * osc * math.Exp(-d2/(2*b.sigma*b.sigma))
	}
	return v
}

// SensorNetworkOptions configures sensor placement and sampling.
type SensorNetworkOptions struct {
	Bounds     geo.Rect
	NumSensors int     // default 25
	Interval   float64 // seconds between readings (default 300)
	Duration   float64 // total observation span in seconds (default 3600)
	NoiseSigma float64 // measurement noise stddev
	DropRate   float64 // probability a scheduled reading is missing
	Seed       int64
}

// Sensor is a placed sensor.
type Sensor struct {
	ID  string
	Pos geo.Point
}

// SensorNetwork places sensors uniformly at random and samples the
// field on a fixed schedule, applying white noise and random dropouts.
// It returns the sensors and the observed readings.
func SensorNetwork(f *Field, opt SensorNetworkOptions) ([]Sensor, []stid.Reading) {
	if opt.NumSensors <= 0 {
		opt.NumSensors = 25
	}
	if opt.Interval <= 0 {
		opt.Interval = 300
	}
	if opt.Duration <= 0 {
		opt.Duration = 3600
	}
	if opt.Bounds.IsEmpty() || opt.Bounds.Area() == 0 {
		opt.Bounds = geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	sensors := make([]Sensor, opt.NumSensors)
	for i := range sensors {
		sensors[i] = Sensor{
			ID: fmt.Sprintf("s%d", i),
			Pos: geo.Pt(
				opt.Bounds.Min.X+rng.Float64()*opt.Bounds.Width(),
				opt.Bounds.Min.Y+rng.Float64()*opt.Bounds.Height(),
			),
		}
		// The draw a per-sensor bias used to take: every seeded table in
		// EXPERIMENTS.md was generated with it in the stream.
		rng.NormFloat64()
	}
	var readings []stid.Reading
	for t := 0.0; t <= opt.Duration; t += opt.Interval {
		for _, s := range sensors {
			if rng.Float64() < opt.DropRate {
				continue
			}
			readings = append(readings, stid.Reading{
				SensorID: s.ID,
				Pos:      s.Pos,
				T:        t,
				Value:    f.Value(s.Pos, t) + rng.NormFloat64()*opt.NoiseSigma,
			})
		}
	}
	return sensors, readings
}

// InjectValueOutliers returns a copy of readings where each value
// independently becomes an outlier with probability rate by adding a
// spike of magnitude at least minMag (random sign). The flags mark the
// corrupted readings.
func InjectValueOutliers(readings []stid.Reading, rate, minMag float64, seed int64) ([]stid.Reading, []bool) {
	rng := rand.New(rand.NewSource(seed))
	out := append([]stid.Reading(nil), readings...)
	flags := make([]bool, len(out))
	for i := range out {
		if rng.Float64() >= rate {
			continue
		}
		spike := minMag * (1 + rng.Float64())
		if rng.Intn(2) == 0 {
			spike = -spike
		}
		out[i].Value += spike
		flags[i] = true
	}
	return out, flags
}
