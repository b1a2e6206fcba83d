package core

// OracleWindow reports the oracle ring's live entries (produced and not yet
// released), its size, and how many entries have been released.
func (m *Machine) OracleWindow() (live, size int, released int64) {
	w := &m.oracle
	return int(w.n - w.base), len(w.ring), w.base
}
