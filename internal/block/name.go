package block

// Name is a user block's content by name: the client payload pattern it
// expands to (AppendBytes), packed into one word, which the system keeps
// wherever it kept the payload's bytes (DESIGN §14).
//
// The word keeps what the pattern reads: byte i of an n-byte payload is
// byte(ino) ^ byte(fbn>>(i%24)) ^ tag ^ byte(i), so the handle's and the
// tag's low bytes XORed (8 bits), the FBN's low 31 bits and n-1 (12 bits).
// Equal names expand to equal bytes; as with arrays, equal bytes may have
// more than one name. The top bit is always set, so the zero Name is no
// name and a storage word tells a name from a handle.
type Name uint64

const (
	nameFBNBits = 31
	nameKeyBits = 8
	nameMark    = Name(1) << 63
)

// NameOf returns the name of the n-byte payload a client writes to block
// fbn of the file it holds as ino, with tag; 0 < n <= Size.
func NameOf(ino uint64, fbn FBN, tag byte, n int) Name {
	key := uint64(byte(ino) ^ tag)
	return nameMark | Name(uint64(n-1))<<(nameFBNBits+nameKeyBits) | Name(key)<<nameFBNBits | Name(uint64(fbn)&(1<<nameFBNBits-1))
}

// Len is the length of n's expansion.
func (n Name) Len() int { return int(n>>(nameFBNBits+nameKeyBits)&(Size-1)) + 1 }

// AppendBytes appends n's expansion to dst and returns the result: the one
// place the payload pattern is written. A caller that only reads the bytes
// passes a scratch array, so expanding allocates nothing.
func (n Name) AppendBytes(dst []byte) []byte {
	key, fbn := byte(n>>nameFBNBits), uint64(n&(1<<nameFBNBits-1))
	var t [24]byte
	for j := range t {
		t[j] = byte(fbn>>j) ^ key
	}
	for i := range n.Len() {
		dst = append(dst, t[i%len(t)]^byte(i))
	}
	return dst
}

// Image is a block image by value: a user block's Name, or bytes under the
// block image rule (package comment), never both. The zero Image is nil, a
// block never written; an Image with empty non-nil Bytes is the zero block
// written.
type Image struct {
	Name  Name
	Bytes []byte
}

// ImageOf returns the image a record or a write request carries in its two
// fields, a name or bytes. One carrying both is a fault: it panics.
func ImageOf(name Name, data []byte) Image {
	if name != 0 && data != nil {
		panic("block: an image with both a name and bytes")
	}
	return Image{Name: name, Bytes: data}
}

// IsNil reports whether img is no image at all.
func (img Image) IsNil() bool { return img.Name == 0 && img.Bytes == nil }

// Len is the image's length in bytes, its expansion's for a name.
func (img Image) Len() int {
	if img.Name != 0 {
		return img.Name.Len()
	}
	return len(img.Bytes)
}

// Expand returns img's bytes: its Bytes, or a fresh array holding its
// name's expansion; nil for no image.
func (img Image) Expand() []byte {
	if img.Name != 0 {
		return img.Name.AppendBytes(nil)
	}
	return img.Bytes
}
