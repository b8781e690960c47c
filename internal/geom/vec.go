package geom

import (
	"fmt"
	"math"
)

// Vec2 is a point or displacement in the plane.
type Vec2 struct {
	X, Y float64
}

// V2 constructs a Vec2.
func V2(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s*v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Dot returns the inner product v·w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the scalar cross product v×w (the z-component of the 3-D
// cross product of the embedded vectors).
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// NormSq returns the squared Euclidean length of v.
func (v Vec2) NormSq() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// DistSq returns the squared Euclidean distance between v and w.
func (v Vec2) DistSq(w Vec2) float64 { return v.Sub(w).NormSq() }

// Unit returns v normalised to length one. The zero vector is returned
// unchanged.
func (v Vec2) Unit() Vec2 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Perp returns v rotated by +90 degrees.
func (v Vec2) Perp() Vec2 { return Vec2{-v.Y, v.X} }

// Rotate returns v rotated counter-clockwise by the given angle in radians.
func (v Vec2) Rotate(rad float64) Vec2 {
	s, c := math.Sincos(rad)
	return Vec2{c*v.X - s*v.Y, s*v.X + c*v.Y}
}

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + t*(w.X-v.X), v.Y + t*(w.Y-v.Y)}
}

// Angle returns the angle of v in radians, in (-pi, pi].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// IsFinite reports whether both components are finite numbers.
func (v Vec2) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0)
}

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.6g, %.6g)", v.X, v.Y) }

// XYZ returns the vector lifted into 3-D with the given z-coordinate.
func (v Vec2) XYZ(z float64) Vec3 { return Vec3{v.X, v.Y, z} }

// Vec3 is a point or displacement in 3-D space.
type Vec3 struct {
	X, Y, Z float64
}

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the vector cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.NormSq()) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.X*v.X + v.Y*v.Y + v.Z*v.Z }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// DistSq returns the squared Euclidean distance between v and w.
func (v Vec3) DistSq(w Vec3) float64 { return v.Sub(w).NormSq() }

// Unit returns v normalised to length one. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{
		v.X + t*(w.X-v.X),
		v.Y + t*(w.Y-v.Y),
		v.Z + t*(w.Z-v.Z),
	}
}

// XY projects v onto the xy-plane.
func (v Vec3) XY() Vec2 { return Vec2{v.X, v.Y} }

// IsFinite reports whether all components are finite numbers.
func (v Vec3) IsFinite() bool {
	// |c| ≤ MaxFloat64 is false for ±Inf and, as an ordered compare, NaN.
	return math.Abs(v.X) <= math.MaxFloat64 &&
		math.Abs(v.Y) <= math.MaxFloat64 &&
		math.Abs(v.Z) <= math.MaxFloat64
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.6g, %.6g, %.6g)", v.X, v.Y, v.Z)
}
