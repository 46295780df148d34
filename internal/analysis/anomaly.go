package analysis

import (
	"math"

	"sidq/internal/stats"
	"sidq/internal/trajectory"
)

// StreamAnomalyDetector flags anomalous movement behaviour online: it
// keeps the most recent normal per-segment speeds and raises an anomaly
// when the incoming segment's speed deviates from their robust profile
// (median and MAD) by more than the threshold. It processes points one
// at a time, suiting the trajectory-stream setting.
type StreamAnomalyDetector struct {
	speeds     []float64
	maxKeep    int
	threshold  float64
	last       trajectory.Point
	havePoint  bool
	minSamples int
}

// NewStreamAnomalyDetector returns a detector with the given robust-z
// threshold.
func NewStreamAnomalyDetector(threshold float64) *StreamAnomalyDetector {
	if threshold <= 0 {
		threshold = 4
	}
	return &StreamAnomalyDetector{
		maxKeep:    512,
		threshold:  threshold,
		minSamples: 8,
	}
}

// Push feeds the next point and reports whether the segment ending at
// it is anomalous.
func (d *StreamAnomalyDetector) Push(p trajectory.Point) bool {
	if !d.havePoint {
		d.havePoint = true
		d.last = p
		return false
	}
	dt := p.T - d.last.T
	if dt <= 0 {
		d.last = p
		return true // non-monotone time is itself anomalous
	}
	speed := d.last.Pos.Dist(p.Pos) / dt
	anomalous := false
	if len(d.speeds) >= d.minSamples {
		med, _ := stats.Median(d.speeds)
		mad, _ := stats.MAD(d.speeds)
		if mad < 0.5 {
			mad = 0.5 // floor: stationary profiles otherwise flag everything
		}
		if math.Abs(speed-med)/mad > d.threshold {
			anomalous = true
		}
	}
	// Anomalous segments do not contaminate the profile.
	if !anomalous {
		d.speeds = append(d.speeds, speed)
		if len(d.speeds) > d.maxKeep {
			d.speeds = d.speeds[len(d.speeds)-d.maxKeep:]
		}
	}
	d.last = p
	return anomalous
}

// DetectTrajectory runs the detector over a whole trajectory and
// returns per-point anomaly flags (the first point is never flagged).
func DetectTrajectory(tr *trajectory.Trajectory, threshold float64) []bool {
	d := NewStreamAnomalyDetector(threshold)
	flags := make([]bool, tr.Len())
	for i, p := range tr.Points {
		flags[i] = d.Push(p)
	}
	return flags
}
