package vm

// Decodes reports how many instructions the machine has decoded so far;
// tests use it to tell a table hit from a re-decode.
func (m *Machine) Decodes() uint64 { return m.decodes }
