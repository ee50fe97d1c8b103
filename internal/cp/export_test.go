package cp

import (
	"fmt"

	"wafl/internal/fs"
)

// VerifyClean reports an error if any metafile still has frozen buffers
// after a CP — a development invariant check.
func (e *Engine) VerifyClean() error {
	var bad []string
	check := func(f *fs.File, tag string) {
		if f.FrozenCount() > 0 {
			bad = append(bad, fmt.Sprintf("%s ino %d: %d frozen", tag, f.Ino(), f.FrozenCount()))
		}
	}
	check(e.a.AmapFile(), "aggr amap")
	check(e.a.VolTableFile(), "voltable")
	for _, v := range e.a.Volumes() {
		for _, mf := range v.Metafiles() {
			check(mf, fmt.Sprintf("vol%d metafile", v.ID()))
		}
		for _, s := range v.Snapshots() {
			check(s.Snapmap, fmt.Sprintf("vol%d snap%d snapmap", v.ID(), s.ID))
			check(s.InoCopy, fmt.Sprintf("vol%d snap%d inocopy", v.ID(), s.ID))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("cp: uncleaned state after CP: %v", bad)
	}
	return nil
}
