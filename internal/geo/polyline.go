package geo

// Polyline is an ordered sequence of planar points.
type Polyline []Point

// Length returns the total arc length of the polyline.
func (pl Polyline) Length() float64 {
	var sum float64
	for i := 1; i < len(pl); i++ {
		sum += pl[i-1].Dist(pl[i])
	}
	return sum
}

// PointAt returns the point at arc-length distance d from the start,
// clamped to the endpoints. It returns the first point for empty input
// handling by the caller; calling PointAt on an empty polyline panics.
func (pl Polyline) PointAt(d float64) Point {
	if d <= 0 {
		return pl[0]
	}
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].Dist(pl[i])
		if d <= seg {
			if seg == 0 {
				return pl[i]
			}
			return pl[i-1].Lerp(pl[i], d/seg)
		}
		d -= seg
	}
	return pl[len(pl)-1]
}
