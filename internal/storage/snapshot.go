package storage

import (
	"bytes"
)

// Snapshot is an immutable full image of a block device at one point in
// time. It is what the paper's multi-snapshot adversary captures (Sec.
// III-A: "take snapshot of the block device storage ... at different points
// of time") and later correlates.
//
// A snapshot shares the device's slab tree as of the capture instant; the
// device seals that generation and clones slabs on write, so the shared
// structures are immutable. Two snapshots of the same device share every
// slab that was not dirtied between them, which Diff exploits: identical
// subtrees are skipped by pointer comparison, making the correlation pass
// O(blocks changed between captures) instead of O(all written blocks).
type Snapshot struct {
	blockSize int
	numBlocks uint64
	root      []*slabDir
	bg        Background
}

// BlockSize implements Device.
func (s *Snapshot) BlockSize() int { return s.blockSize }

// NumBlocks implements Device.
func (s *Snapshot) NumBlocks() uint64 { return s.numBlocks }

// ReadBlock implements Device. Snapshots are immutable and always readable.
func (s *Snapshot) ReadBlock(idx uint64, dst []byte) error { return DoBlock(s, OpRead, idx, dst) }

// WriteBlock implements Device; snapshots are read-only.
func (s *Snapshot) WriteBlock(uint64, []byte) error { return ErrReadOnly }

// Sync implements Device.
func (s *Snapshot) Sync() error { return nil }

// Do implements Doer over the immutable slab tree: reads are the device's
// per-slab bulk copies, writes fail with ErrReadOnly, syncs and discards
// have nothing to do.
func (s *Snapshot) Do(reqs []Req) error {
	return Each(reqs, func(one []Req) error {
		r := &one[0]
		switch r.Op {
		case OpWrite:
			return ErrReadOnly
		case OpRead:
			if err := checkVecIO(r.Start, r.Vec, s.blockSize, s.numBlocks); err != nil {
				return err
			}
			return r.Vec.Range(func(off int, seg []byte) error {
				readSlabRange(s.root, s.bg, s.blockSize, r.Start+uint64(off), seg)
				return nil
			})
		}
		return nil
	})
}

// Close implements Device; closing a snapshot is a no-op so that adversary
// code can treat snapshots uniformly with live devices.
func (s *Snapshot) Close() error { return nil }

// Block returns the content of block idx as a fresh slice.
func (s *Snapshot) Block(idx uint64) []byte {
	dst := make([]byte, s.blockSize)
	// ReadBlock on a snapshot can only fail on a range error, which Block's
	// callers guard against; return zero content in that case.
	_ = s.ReadBlock(idx, dst)
	return dst
}

// Diff returns the sorted indexes of blocks whose content differs between s
// and other. It is the fundamental multi-snapshot adversary primitive: any
// block in the diff changed between captures and must be *accountable* —
// explainable by public writes or dummy writes — or deniability is lost.
//
// Snapshots of the same device share every slab not dirtied between the two
// captures; those subtrees are skipped wholesale by pointer equality, so
// the walk touches only changed slabs plus, when the two snapshots carry
// different backgrounds, the unmaterialized remainder (images of devices
// initialized differently disagree on every untouched block).
//
// Diff panics if the two snapshots have different geometry, which would mean
// the adversary imaged two different devices.
func (s *Snapshot) Diff(other *Snapshot) []uint64 {
	if s.blockSize != other.blockSize || s.numBlocks != other.numBlocks {
		panic("storage: diffing snapshots of different geometry")
	}
	sameBG := s.bg.Equal(other.bg)
	var diff []uint64
	bufA := make([]byte, s.blockSize)
	bufB := make([]byte, s.blockSize)
	for di := range s.root {
		dirA, dirB := s.root[di], other.root[di]
		if dirA == dirB && sameBG {
			// Shared subtree: written blocks share storage, unwritten
			// blocks share the background.
			continue
		}
		for si := 0; si < dirSlabs; si++ {
			base := uint64(di)<<dirBlockBits + uint64(si)<<slabBlockBits
			if base >= s.numBlocks {
				break
			}
			var sa, sb *slab
			if dirA != nil {
				sa = dirA.slabs[si]
			}
			if dirB != nil {
				sb = dirB.slabs[si]
			}
			if sa == sb && sameBG {
				continue
			}
			end := base + slabBlocks
			if end > s.numBlocks {
				end = s.numBlocks
			}
			for idx := base; idx < end; idx++ {
				off := idx & slabMask
				wa := sa != nil && sa.written&(1<<off) != 0
				wb := sb != nil && sb.written&(1<<off) != 0
				switch {
				case !wa && !wb:
					// Both read as background; identical iff the
					// backgrounds match.
					if !sameBG {
						diff = append(diff, idx)
					}
				case wa && wb && sa == sb:
					// Same materialized bytes.
				default:
					readSlabBlock(sa, idx, bufA, s.blockSize, s.bg)
					readSlabBlock(sb, idx, bufB, other.blockSize, other.bg)
					if !bytes.Equal(bufA, bufB) {
						diff = append(diff, idx)
					}
				}
			}
		}
	}
	return diff
}
