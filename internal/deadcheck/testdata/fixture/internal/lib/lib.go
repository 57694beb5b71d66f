// Package lib declares the exported identifiers the dead-export check
// is tested against.
package lib

import "strconv"

// Shape is a named interface that package use converts a Square to.
type Shape interface{ Area() float64 }

// Square's Side is set by package use; Unused is named only by a test.
type Square struct {
	Side   float64
	Unused float64
}

// Area is kept: it satisfies Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is dead: only a test calls it.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// String is kept: it satisfies fmt.Stringer.
func (s Square) String() string { return strconv.FormatFloat(s.Side, 'g', -1, 64) }

// Bound is kept: package use reaches it through an anonymous interface
// assertion.
func (s *Square) Bound() int64 { return int64(s.Side) }

// Box is generic; Get is called on an instantiation.
type Box[T any] struct{ v T }

// NewBox returns a box holding v.
func NewBox[T any](v T) *Box[T] { return &Box[T]{v: v} }

// Get returns the boxed value.
func (b *Box[T]) Get() T { return b.v }

// Dead has no caller outside a test.
func Dead() {}

// Used is called by package use.
func Used() {}

// Allowed has no caller, but the allowlist keeps it.
func Allowed() {}

// Stale is allowlisted, yet package use calls it.
func Stale() {}
