package spstore

import (
	"slices"

	"repro/internal/isa"
)

// Relocator is check 6 without a machine: it decodes rec's body once and
// returns the function that renders it as it must read at a given address.
// place overwrites the stream it is given, so each call gets a copy.
func Relocator(rec *Record) (func(at uint64) ([]byte, error), error) {
	stream, err := isa.DecodeAll(rec.Code, rec.CodeAddr)
	if err != nil {
		return nil, err
	}
	return func(at uint64) ([]byte, error) { return place(rec, slices.Clone(stream), at) }, nil
}
