package bitmap

// SetRaw marks bn in use without CP dirtying: how the tests build a summary
// map that no CP is going to clean.
func (a *Activemap) SetRaw(bn uint64) {
	buf, byteOff, mask := a.locate(bn)
	d := buf.CPMutableData()
	if d[byteOff]&mask != 0 {
		return
	}
	d[byteOff] |= mask
	a.free--
	if a.OnChange != nil {
		a.OnChange(bn, true)
	}
}
