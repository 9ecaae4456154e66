package storage

import "fmt"

// Dict is an order-of-insertion string dictionary. Codes are dense: the i-th
// distinct string inserted receives code i. String columns store codes, so
// every string column is dictionary-compressed and its key domain is dense —
// exactly the situation in which the paper's static perfect hashing applies.
type Dict struct {
	codes   map[string]uint32
	strings []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{codes: make(map[string]uint32)}
}

// Intern returns the code for s, inserting it if not yet present.
func (d *Dict) Intern(s string) uint32 {
	if c, ok := d.codes[s]; ok {
		return c
	}
	c := uint32(len(d.strings))
	d.codes[s] = c
	d.strings = append(d.strings, s)
	return c
}

// Code returns the code for s and whether it is present.
func (d *Dict) Code(s string) (uint32, bool) {
	c, ok := d.codes[s]
	return c, ok
}

// Lookup returns the string for code c. It panics if c is out of range, which
// indicates a corrupted column.
func (d *Dict) Lookup(c uint32) string {
	if int(c) >= len(d.strings) {
		panic(fmt.Sprintf("storage: dictionary code %d out of range (size %d)", c, len(d.strings)))
	}
	return d.strings[c]
}

// Strings returns the dictionary's strings indexed by code. The slice is
// shared; do not mutate.
func (d *Dict) Strings() []string { return d.strings }

// Len returns the number of distinct strings.
func (d *Dict) Len() int { return len(d.strings) }

// Clone returns a deep copy of the dictionary.
func (d *Dict) Clone() *Dict {
	nd := &Dict{
		codes:   make(map[string]uint32, len(d.codes)),
		strings: append([]string(nil), d.strings...),
	}
	for s, c := range d.codes {
		nd.codes[s] = c
	}
	return nd
}
