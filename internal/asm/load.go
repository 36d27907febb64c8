package asm

import (
	"fmt"

	"repro/internal/vm"
)

// Image is an assembled program placed into a machine.
type Image struct {
	*Program
	Machine *vm.Machine
}

// Load assembles src, allocates space in the machine's code and data
// segments, and copies both images in. Because instruction sizes depend on
// final addresses, assembly runs twice: once at provisional bases to learn
// image sizes, then at the allocated bases.
func Load(m *vm.Machine, src string) (*Image, error) {
	probe, err := AssembleAt(src, vm.CodeBase, vm.DataBase)
	if err != nil {
		return nil, err
	}
	codeAddr, err := m.CodeAlloc.Alloc(uint64(len(probe.Code)) + 1)
	if err != nil {
		return nil, fmt.Errorf("asm: allocating code: %w", err)
	}
	dataAddr := uint64(0)
	if len(probe.Data) > 0 {
		dataAddr, err = m.DataAlloc.Alloc(uint64(len(probe.Data)))
		if err != nil {
			return nil, fmt.Errorf("asm: allocating data: %w", err)
		}
	}
	p, err := AssembleAt(src, codeAddr, dataAddr)
	if err != nil {
		return nil, err
	}
	if len(p.Code) != len(probe.Code) || len(p.Data) != len(probe.Data) {
		return nil, fmt.Errorf("asm: image size changed between passes (%d/%d -> %d/%d)",
			len(probe.Code), len(probe.Data), len(p.Code), len(p.Data))
	}
	if err := m.Mem.WriteBytes(codeAddr, p.Code); err != nil {
		return nil, err
	}
	if len(p.Data) > 0 {
		if err := m.Mem.WriteBytes(dataAddr, p.Data); err != nil {
			return nil, err
		}
	}
	m.InvalidateCode(codeAddr, codeAddr+uint64(len(p.Code)))
	return &Image{Program: p, Machine: m}, nil
}

// MustEntry returns a label address, panicking on unknown labels; intended
// for tests and examples where the label is a literal.
func (im *Image) MustEntry(label string) uint64 {
	a, err := im.Entry(label)
	if err != nil {
		panic(err)
	}
	return a
}
