package main

import (
	"encoding/binary"
	"fmt"
)

// Self-validating values. Every value the benchmark stores carries who wrote
// it, for which key, as which write, and a checksum over all of it:
//
//	[0:8)   write sequence (unique in the run; 0 for the preload)
//	[8:12)  key index
//	[12:16) writer (0 preload, 1+ client connection or worker)
//	[16:n-8) filler derived from the sequence
//	[n-8:n) checksum of bytes [0:n-8)
//
// A reader can therefore tell a torn, corrupted or misplaced value from a
// legitimate one, and name the write it came from.
const valueHeader = 16

func fillValue(v []byte, seq uint64, key uint32, writer uint32) {
	binary.LittleEndian.PutUint64(v[0:], seq)
	binary.LittleEndian.PutUint32(v[8:], key)
	binary.LittleEndian.PutUint32(v[12:], writer)
	h := splitmix64(seq ^ uint64(key)<<32)
	for o := valueHeader; o < len(v)-8; o++ {
		if (o-valueHeader)%8 == 0 {
			h = splitmix64(h)
		}
		v[o] = byte(h >> (8 * uint((o-valueHeader)%8)))
	}
	binary.LittleEndian.PutUint64(v[len(v)-8:], checksum(v[:len(v)-8]))
}

func checksum(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// decodeValue validates v as a value for key and returns the write that
// produced it.
func decodeValue(v []byte, key uint32, size int) (seq uint64, writer uint32, err error) {
	if len(v) != size {
		return 0, 0, fmt.Errorf("value of %d bytes, want %d", len(v), size)
	}
	if checksum(v[:len(v)-8]) != binary.LittleEndian.Uint64(v[len(v)-8:]) {
		return 0, 0, fmt.Errorf("value checksum mismatch")
	}
	seq = binary.LittleEndian.Uint64(v[0:])
	if k := binary.LittleEndian.Uint32(v[8:]); k != key {
		return 0, 0, fmt.Errorf("value written for key %d returned for key %d", k, key)
	}
	writer = binary.LittleEndian.Uint32(v[12:])
	want := make([]byte, size)
	fillValue(want, seq, key, writer)
	if string(want) != string(v) {
		return 0, 0, fmt.Errorf("value filler does not match write %d", seq)
	}
	return seq, writer, nil
}

// keyName is the wire form of key index i.
func keyName(i uint32) string { return fmt.Sprintf("k%07d", i) }
