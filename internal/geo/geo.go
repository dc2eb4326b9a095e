// Package geo provides the planar geometry and geodesy primitives used by
// the road-network substrate: points, rectangles, Euclidean distances, and
// conversion of WGS84 latitude/longitude coordinates to UTM (Universal
// Transverse Mercator), mirroring the preprocessing step of the paper
// (§7.1: "we convert the data to the UTM format, using World Geodetic
// System 84 specification").
package geo

import (
	"fmt"
	"math"
)

// Point is a location in a planar coordinate system (metres for UTM).
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, closed on all sides.
// The zero Rect is the empty rectangle at the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// RectAround returns the square of the given area (in the squared unit of
// the coordinate system, e.g. m²) centred at c.
func RectAround(c Point, area float64) Rect {
	if area < 0 {
		area = 0
	}
	half := math.Sqrt(area) / 2
	return Rect{c.X - half, c.Y - half, c.X + half, c.Y + half}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersect returns the intersection of r and s and whether it is non-empty.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.MinX > out.MaxX || out.MinY > out.MaxY {
		return Rect{}, false
	}
	return out, true
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 {
	if r.MaxX < r.MinX || r.MaxY < r.MinY {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the centre point of r.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Expand returns r grown by d on every side (shrunk for negative d).
func (r Rect) Expand(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.2f,%.2f]x[%.2f,%.2f]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// LatLng is a WGS84 geographic coordinate in decimal degrees.
type LatLng struct {
	Lat, Lng float64
}

// WGS84 ellipsoid constants.
const (
	wgs84A  = 6378137.0         // semi-major axis (m)
	wgs84F  = 1 / 298.257223563 // flattening
	utmK0   = 0.9996            // UTM scale factor on the central meridian
	utmFE   = 500000.0          // false easting (m)
	utmFNSo = 10000000.0        // false northing, southern hemisphere (m)
	deg2rad = math.Pi / 180.0
)

// UTMZone returns the UTM longitudinal zone (1..60) for a longitude.
func UTMZone(lng float64) int {
	z := int(math.Floor((lng+180)/6)) + 1
	if z < 1 {
		z = 1
	}
	if z > 60 {
		z = 60
	}
	return z
}

// ToUTM projects a WGS84 coordinate to UTM easting/northing (metres) in the
// given zone. The implementation follows the standard Krüger series used by
// USGS; accuracy is sub-metre within a zone, which is far below road-segment
// length noise. Latitude must lie in (-90, 90).
func ToUTM(ll LatLng, zone int) Point {
	a := wgs84A
	f := wgs84F
	e2 := f * (2 - f)    // first eccentricity squared
	ep2 := e2 / (1 - e2) // second eccentricity squared
	lat := ll.Lat * deg2rad
	lng := ll.Lng * deg2rad
	lng0 := (float64(zone)*6 - 183) * deg2rad

	sinLat, cosLat := math.Sincos(lat)
	tanLat := sinLat / cosLat

	n := a / math.Sqrt(1-e2*sinLat*sinLat)
	t := tanLat * tanLat
	c := ep2 * cosLat * cosLat
	al := cosLat * (lng - lng0)

	// Meridional arc length.
	m := a * ((1-e2/4-3*e2*e2/64-5*e2*e2*e2/256)*lat -
		(3*e2/8+3*e2*e2/32+45*e2*e2*e2/1024)*math.Sin(2*lat) +
		(15*e2*e2/256+45*e2*e2*e2/1024)*math.Sin(4*lat) -
		(35*e2*e2*e2/3072)*math.Sin(6*lat))

	x := utmK0*n*(al+(1-t+c)*al*al*al/6+
		(5-18*t+t*t+72*c-58*ep2)*al*al*al*al*al/120) + utmFE
	y := utmK0 * (m + n*tanLat*(al*al/2+
		(5-t+9*c+4*c*c)*al*al*al*al/24+
		(61-58*t+t*t+600*c-330*ep2)*al*al*al*al*al*al/720))
	if ll.Lat < 0 {
		y += utmFNSo
	}
	return Point{X: x, Y: y}
}
