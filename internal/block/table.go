package block

// Word is a block image in one word, the one format in which a drive's media
// table holds a DBN's image and a user file's level-1 node an L0's (DESIGN
// §14, §15): 0 for none, a Name (top bit set), or a byte image's handle in a
// Table plus one. A Word holds no pointer, so the collector never scans an
// array of them.
type Word uint64

// HolderBit is the bit of a Word left to the word's holder: no Name sets it,
// and a Table ignores it. A drive marks a DBN media-only with it.
const HolderBit = Word(1) << 62

// tablePage is the number of handles a page of a Table holds.
const tablePage = 512

// Table holds the byte images that Words stand for, addressed by handle: in
// pages of tablePage handles made as handles run out, so the table never
// copies itself, with a free list of the handles not in use. The zero value
// is an empty table.
type Table struct {
	pages [][][]byte
	made  int // handles made
	free  []int
}

// handle returns the byte-image handle w holds, or -1 for none or a name.
func (w Word) handle() int {
	if w&^HolderBit == 0 || w>>63 != 0 {
		return -1
	}
	return int(w&^HolderBit) - 1
}

// at returns the table entry of handle h.
func (t *Table) at(h int) *[]byte { return &t.pages[h/tablePage][h%tablePage] }

// Image returns the image w stands for: its name, or the byte array put in
// its handle.
func (t *Table) Image(w Word) Image {
	if h := w.handle(); h >= 0 {
		return Image{Bytes: *t.at(h)}
	}
	return Image{Name: Name(w &^ HolderBit)}
}

// Put returns the word that stands for img in place of w, which it
// replaces: bytes in w's handle, else a free one, else a new one; a name by
// value, and nil as 0, each freeing w's handle. The word returned has
// HolderBit clear.
func (t *Table) Put(w Word, img Image) Word {
	h := w.handle()
	if img.Bytes == nil {
		if h >= 0 {
			*t.at(h), t.free = nil, append(t.free, h)
		}
		return Word(img.Name)
	}
	if h < 0 {
		if n := len(t.free); n > 0 {
			h, t.free = t.free[n-1], t.free[:n-1]
		} else {
			if h = t.made; h%tablePage == 0 {
				t.pages = append(t.pages, make([][]byte, tablePage))
			}
			t.made++
		}
	}
	*t.at(h) = img.Bytes
	return Word(h + 1)
}

// Len returns the number of handles in use.
func (t *Table) Len() int { return t.made - len(t.free) }
