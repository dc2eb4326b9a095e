package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestDistSymmetricAndNonNegative(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		p, q := Point{ax, ay}, Point{bx, by}
		d1, d2 := p.Dist(q), q.Dist(p)
		return d1 == d2 && (d1 >= 0 || math.IsInf(d1, 1) || math.IsNaN(d1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Point{5, 7}, Point{1, 2})
	want := Rect{1, 2, 5, 7}
	if r != want {
		t.Errorf("NewRect = %+v, want %+v", r, want)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 10}) || !r.Contains(Point{5, 5}) {
		t.Error("boundary or interior point not contained")
	}
	if r.Contains(Point{10.001, 5}) || r.Contains(Point{-0.001, 5}) {
		t.Error("exterior point contained")
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{5, 5, 15, 15}, true},
		{Rect{10, 10, 20, 20}, true}, // touching corner counts
		{Rect{11, 11, 20, 20}, false},
		{Rect{-5, -5, -1, -1}, false},
		{Rect{2, 2, 3, 3}, true}, // fully inside
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("Intersects not symmetric for %v", c.b)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	got, ok := a.Intersect(Rect{5, 5, 15, 15})
	if !ok || got != (Rect{5, 5, 10, 10}) {
		t.Errorf("Intersect = %v, %v", got, ok)
	}
	if _, ok := a.Intersect(Rect{20, 20, 30, 30}); ok {
		t.Error("disjoint rectangles reported intersecting")
	}
}

func TestRectAroundArea(t *testing.T) {
	c := Point{100, 200}
	r := RectAround(c, 100e6) // 100 km² in m²
	if math.Abs(r.Area()-100e6) > 1e-3 {
		t.Errorf("area = %v, want 100e6", r.Area())
	}
	if r.Center() != c {
		t.Errorf("center = %v, want %v", r.Center(), c)
	}
	if r.Width() != r.Height() {
		t.Error("RectAround must be square")
	}
	if RectAround(c, -5).Area() != 0 {
		t.Error("negative area should clamp to zero")
	}
}

func TestRectExpand(t *testing.T) {
	r := Rect{0, 0, 10, 10}.Expand(2)
	if r != (Rect{-2, -2, 12, 12}) {
		t.Errorf("Expand = %v", r)
	}
}

func TestRectAreaDegenerate(t *testing.T) {
	if (Rect{5, 5, 1, 1}).Area() != 0 {
		t.Error("inverted rect must have zero area")
	}
}
