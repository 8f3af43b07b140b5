package mediator

import (
	"bytes"
	"fmt"

	"repro/internal/delta"
	"repro/internal/feed"
	"repro/internal/obs"
)

// publication is what one write callback asks to change; the zero value
// changes nothing.
type publication struct {
	// next becomes the serving epoch; retire serves none instead (its
	// fingerprint went stale, the next pin builds one).
	next   *snapshot
	retire bool
	// change is the ChangeSet change events summarize. With base set it
	// turned base, the serving epoch the callback was handed, into next: it
	// is logged when the store reflects base, else next is checkpointed.
	change *delta.ChangeSet
	base   *snapshot
	// checkpoint is written as the next checkpoint; its failure is write's
	// error. restoredSeq names the checkpoint next was restored from.
	checkpoint  *snapshot
	restoredSeq uint64
	// dropTags drops the cached results of these concepts; dropAll, all.
	dropTags []string
	dropAll  bool
	// fp becomes the fingerprint the cache is valid under: stored when
	// setFP, swapped from fpFrom when casFP (a delta moves only the
	// fingerprint it was computed against).
	setFP, casFP bool
	fp, fpFrom   uint64
	events       []feed.Event
	tr           *obs.Trace // WAL-append, invalidation and feed-publish spans
}

// written reports what one write did: the feed sequence number of its
// first event (0: none), the cached results dropped by tag, and the
// checkpoint written, explicit or by the WAL policy.
type written struct {
	seq         uint64
	invalidated int
	saved       *SaveResult
}

// write is the mediator's one writer: every epoch publication, WAL or
// checkpoint write, cache drop and feed event goes through it. It runs fn
// under epochMu with the serving epoch and, unless fn fails, applies the
// publication fn returns in this order before it unlocks:
//
//  1. The epoch is stored or retired; readers pin it from here on.
//  2. The store logs change to the WAL, or checkpoints next instead when
//     the store lacks base or the WAL outgrew its policy: WAL order is
//     epoch order, and each record applies to the world it was computed
//     against.
//  3. The cached results the change staled are dropped.
//  4. The fingerprint is published: ensureFresh stands down only once no
//     stale entry remains.
//  5. The feed events are published: a subscriber that re-asks on one
//     reads the world it announces, and feed order is epoch order.
//
// It returns fn's error, else the explicit checkpoint's. WAL and policy
// checkpoint failures are only counted: the in-memory change stands, and
// the next change checkpoints rather than log against a missing base.
func (m *Manager) write(fn func(cur *snapshot) (publication, error)) (out written, err error) {
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	p, err := fn(m.epoch.Load())
	if err != nil {
		return out, err
	}

	if p.next != nil {
		m.epoch.Store(p.next)
		m.epochsPublished.Inc()
	} else if p.retire {
		m.epoch.Store(nil)
	}

	if m.store != nil {
		// The store's write side is held to the end of write, so WAL
		// order is epoch order.
		sec := m.store.Begin()
		defer sec.End()
		ckpt := p.checkpoint
		switch {
		case p.restoredSeq != 0:
			m.persistSeq, m.diskEpoch = p.restoredSeq, p.next
			if oerr := sec.OpenWAL(p.restoredSeq); oerr != nil {
				m.persistErrors.Inc()
			}
		case p.base != nil && !p.change.Empty():
			if m.persistSeq == 0 || m.diskEpoch != p.base {
				ckpt = p.next // a record against base would replay onto another world
				break
			}
			start := obs.Now()
			var buf bytes.Buffer
			werr := delta.EncodeChangeSet(&buf, p.change)
			if werr == nil {
				werr = sec.AppendWAL(buf.Bytes())
			}
			if werr != nil {
				m.persistErrors.Inc()
				break
			}
			m.walAppended.Inc()
			m.walBytes.Add(uint64(buf.Len()))
			d := obs.Since(start)
			p.tr.SpanDur(obs.StageWALAppend, start, d, "")
			if m.o != nil {
				m.o.M.WALDur.Observe(d)
			}
			m.diskEpoch = p.next
			if recs, n := sec.WALStats(); recs >= m.persistPol.EveryRecords || n >= DefaultPersistEveryBytes {
				ckpt = p.next
			}
		case p.base != nil && m.diskEpoch == p.base:
			m.diskEpoch = p.next // an empty change: the store reflects next too
		}
		if ckpt != nil {
			start := obs.Now()
			seq := m.persistSeq + 1
			payload, cerr := ckpt.w.Encode(ckpt.fp, buildStats(ckpt.stats))
			if cerr == nil {
				cerr = sec.WriteCheckpoint(seq, payload)
			}
			if cerr != nil {
				m.persistErrors.Inc()
				if ckpt == p.checkpoint {
					err = cerr
				}
			} else {
				m.persistSeq, m.diskEpoch = seq, ckpt
				m.checkpoints.Inc()
				m.checkpointBytes.Add(uint64(len(payload)))
				took := obs.Since(start)
				if m.o != nil {
					m.o.M.CkptDur.Observe(took)
				}
				out.saved = &SaveResult{Seq: seq, Bytes: len(payload), Took: took}
			}
		}
	}

	if p.dropAll {
		m.cache.Invalidate()
	} else if len(p.dropTags) > 0 {
		ti := obs.Now()
		out.invalidated = m.cache.InvalidateTags(p.dropTags)
		p.tr.SpanNote(obs.StageInvalidate, ti, fmt.Sprintf("%d dropped", out.invalidated))
	}

	if p.casFP {
		m.lastFP.CompareAndSwap(p.fpFrom, p.fp)
	} else if p.setFP {
		m.lastFP.Store(p.fp)
	}

	if m.hub != nil && len(p.events) > 0 {
		tf := obs.Now()
		for i, ev := range p.events {
			var summary func() []byte // encoded only if a subscriber asks
			if ev.Kind == feed.KindChange {
				summary = func() []byte {
					var buf bytes.Buffer
					if delta.EncodeChangeSet(&buf, p.change) != nil {
						return nil
					}
					return buf.Bytes()
				}
			}
			if seq := m.hub.Publish(ev, summary); i == 0 {
				out.seq = seq
			}
		}
		d := obs.Since(tf)
		p.tr.SpanDur(obs.StageFeedPublish, tf, d, "")
		if m.o != nil {
			m.o.M.FeedPubDur.Observe(d)
		}
	}
	return out, err
}
