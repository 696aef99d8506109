package core

import (
	"fmt"
	"sort"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// GCReport summarizes one garbage-collection pass.
type GCReport struct {
	// Fraction is the random reclaim percentage drawn for this pass.
	Fraction float64
	// Reclaimed counts the discarded dummy blocks.
	Reclaimed uint64
	// Scanned counts the candidate blocks examined.
	Scanned uint64
}

// GC reclaims a random percentage of the space occupied by dummy writes
// (paper Sec. IV-D). It must be invoked from hidden mode so the caller can
// name every volume that actually holds hidden data in protected; those
// volumes are skipped. GC deliberately never reclaims everything: if all
// dummy blocks vanished while hidden blocks stayed, a snapshot diff would
// expose exactly the hidden data, so the reclaim fraction is drawn randomly
// — skewed high for efficiency (1 - f² for uniform f), clamped to
// [0.05, 0.95] — and applied to a random subset.
//
// Virtual block 0 of every volume (verifier / cover block) is never
// reclaimed so all non-public volumes keep identical minimum footprints.
//
// A nil src draws from the system's own GC source: seeded from Config.Seed
// on first use and advanced from pass to pass, so successive passes draw
// different fractions. (Re-seeding per call, as earlier versions did, drew
// the same fraction every pass — a fixed percentage is exactly what the
// random one exists to avoid.)
func (s *System) GC(protected []int, src *prng.Source) (GCReport, error) {
	if src == nil {
		// Held for the whole pass: a Source is not safe for concurrent
		// use, and two passes racing for one would interleave their draws.
		s.gcMu.Lock()
		defer s.gcMu.Unlock()
		if s.gcSrc == nil {
			s.gcSrc = prng.NewSource(s.cfg.Seed + 0x6763)
		}
		src = s.gcSrc
	}
	keep := map[int]bool{PublicVolumeID: true}
	for _, id := range protected {
		keep[id] = true
	}
	fraction := 1 - func() float64 { f := src.Float64(); return f * f }()
	if fraction < 0.05 {
		fraction = 0.05
	}
	if fraction > 0.95 {
		fraction = 0.95
	}
	report := GCReport{Fraction: fraction}

	for id := 2; id <= s.cfg.NumVolumes; id++ {
		if keep[id] {
			continue
		}
		vbs, err := s.pool.MappedVBlocks(id)
		if err != nil {
			return report, fmt.Errorf("core: listing volume %d: %w", id, err)
		}
		thin, err := s.view(id, nil)
		if err != nil {
			return report, err
		}
		// Random subset of size fraction*len, never touching vblock 0.
		candidates := vbs[:0:0]
		for _, vb := range vbs {
			if vb != 0 {
				candidates = append(candidates, vb)
			}
		}
		report.Scanned += uint64(len(candidates))
		src.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		take := candidates[:int(fraction*float64(len(candidates)))]
		// The random subset is re-sorted and discarded as run-length
		// ranges: dummy writes land on contiguous virtual offsets often
		// enough that vectored TRIM cuts the per-block pool-lock traffic
		// substantially, and the discarded *set* — all that the reclaim
		// randomness protects — is unchanged by the ordering.
		sort.Slice(take, func(i, j int) bool { return take[i] < take[j] })
		err = storage.ForEachRun(take, func(start uint64, count int) error {
			if err := storage.Discard(thin, start, uint64(count)); err != nil {
				return fmt.Errorf("core: discarding blocks [%d, %d) of volume %d: %w",
					start, start+uint64(count), id, err)
			}
			report.Reclaimed += uint64(count)
			return nil
		})
		if err != nil {
			return report, err
		}
	}
	if err := s.pool.Commit(); err != nil {
		return report, fmt.Errorf("core: committing GC: %w", err)
	}
	return report, nil
}
