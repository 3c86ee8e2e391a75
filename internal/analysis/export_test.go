package analysis

import "carat/internal/ir"

// What the reference oracles (reference_test.go, an external test package
// because its inputs come from packages that import this one) need to see.

// UnknownObj is the points-to analysis's "anything" object.
var UnknownObj ir.Value = unknownObj

// ObjectsOf returns a copy of the objects v may point to, in the order the
// analysis holds them.
func (pt *PointsToAA) ObjectsOf(v ir.Value) []ir.Value {
	var one [1]ir.Value
	return append([]ir.Value(nil), pt.objectsOf(v, &one)...)
}
