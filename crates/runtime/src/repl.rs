//! The replica side of the fleet's replication protocol, written once
//! as a sans-IO state machine.
//!
//! A [`Replica`] owns exactly what the protocol decides on: the epoch
//! it has adopted, whether it leads its group, the per-incarnation
//! dedup window, the writes it is replicating, and its durable
//! [`EffectLog`]. It is fed frames ([`Replica::on_frame`]), finished
//! conversions ([`Replica::on_converted`]), drive ticks
//! ([`Replica::drive`]) and crash recovery ([`Replica::recover`]), and
//! answers with [`Output`]s: frames to send, conversions to start, and
//! the facts its caller grades. Each input pushes its outputs onto a
//! buffer the caller owns and drains, so a write allocates nothing here
//! beyond the amortised growth of the log and the dedup window. It owns
//! no clock, socket, lock or fabric — the caller does that I/O, which
//! is how both tiers run it: the deterministic fleet simulation over
//! `dst::SimNet`, the TCP tier in process, under each group's lock.
//!
//! [`elect`] is the one election rule: both the simulator's router and
//! the TCP tier's promotion and rejoin pick their replica through it.

use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use wire::{FleetMsg, WireOutcome};

use crate::effect_log::{EffectLog, EffectRecord};
use crate::small_set::SmallSet;

/// Pause before a primary re-sends a `Replicate` a sibling has not
/// acked, milliseconds.
const RETRANSMIT_MS: u64 = 40;

/// The election key of a replica log: `(epoch of its last record,
/// length)`, 0 for an empty log. Epoch-major, so a healed ex-primary's
/// uncommitted tail can never outrank a replica that holds later-epoch
/// acked effects.
pub(crate) fn rank(log: &[EffectRecord]) -> (u64, u64) {
    (log.last().map_or(0, |r| r.epoch), log.len() as u64)
}

/// Picks the replica a group promotes: `logs[i]` is replica `i`'s log,
/// or `None` when it may not stand. The highest [`rank`] wins and the
/// lowest index breaks ties; `None` when nobody may stand.
pub(crate) fn elect<'a>(
    logs: impl IntoIterator<Item = Option<&'a [EffectRecord]>>,
) -> Option<usize> {
    logs.into_iter()
        .enumerate()
        .filter_map(|(i, log)| Some((rank(log?), Reverse(i))))
        .max()
        .map(|(_, Reverse(i))| i)
}

/// What one input made a [`Replica`] do, in the order it did it.
#[derive(Debug, PartialEq)]
pub(crate) enum Output {
    /// Put this frame on the wire to node `.0`.
    Send(usize, FleetMsg),
    /// Answer the router for request `.0`.
    Reply(u64, WireOutcome),
    /// Start a conversion; `read_only` when the durable log already
    /// holds the request's effect, so the re-serve must add none.
    Convert {
        /// The request converted.
        req_id: u64,
        /// Its die-region key.
        key: u64,
        /// Whether the conversion may carry no new effect.
        read_only: bool,
    },
    /// A write reached every live sibling and was answered: `req_id`
    /// sits at log position `pos`.
    Completed {
        /// The request completed.
        req_id: u64,
        /// Its position in this replica's log.
        pos: u64,
    },
    /// This replica acked `req_id` from `epoch` while holding the newer
    /// `held` — it serves two leadership regimes at once.
    AckedDeposed {
        /// The request acked.
        req_id: u64,
        /// The deposed epoch the ack went to.
        epoch: u64,
        /// The epoch this replica holds.
        held: u64,
    },
    /// A duplicated request was absorbed by the dedup window or the
    /// durable log.
    Absorbed,
    /// A stand-down abandoned this many in-flight writes.
    Fenced(u64),
}

fn failed(kind: &str) -> WireOutcome {
    WireOutcome::Failed { kind: kind.into() }
}

/// A primary's in-flight replication of one effect: the outcome is
/// held back until every live sibling has durably acked.
struct Replicating {
    outcome: WireOutcome,
    rec: EffectRecord,
    /// The siblings that acked it, by node id.
    acks: SmallSet,
    next_retx: u64,
}

/// One replica's protocol state.
pub(crate) struct Replica {
    group: usize,
    index: usize,
    /// Whether backups refuse frames from deposed epochs; `false` only
    /// under the known-bad `NoEpochFence` mutation.
    fence: bool,
    log: EffectLog,
    /// The group epoch this replica has adopted. Only ever raised, so a
    /// stale `Promote` can never roll the fence back.
    held_epoch: u64,
    /// Only a `Promote` naming this replica grants leadership; a
    /// stand-down or a crash clears it.
    is_primary: bool,
    incarnation: u64,
    /// Dedup window for this incarnation: `req_id` → `None` while in
    /// flight, `Some(outcome)` once answered (replays re-send it).
    seen: BTreeMap<u64, Option<WireOutcome>>,
    /// Writes being replicated, sorted by `req_id`: the order `drive`
    /// retransmits and completes them in.
    in_flight: Vec<(u64, Replicating)>,
}

impl Replica {
    /// Replica `index` of `group` over its durable `log`; replica 0
    /// starts as primary at epoch 0.
    pub(crate) fn new(group: usize, index: usize, log: EffectLog, fence: bool) -> Replica {
        Replica {
            group,
            index,
            fence,
            log,
            held_epoch: 0,
            is_primary: index == 0,
            incarnation: 0,
            seen: BTreeMap::new(),
            in_flight: Vec::new(),
        }
    }

    /// The durable effect log.
    pub(crate) fn log(&self) -> &EffectLog {
        &self.log
    }

    /// Anti-entropy and rejoin repair: rewrites the durable log to
    /// `canonical` when the two differ. True when it did.
    pub(crate) fn repair(&mut self, canonical: &[EffectRecord]) -> bool {
        self.log.records() != canonical && self.log.reset_to(canonical).is_ok()
    }

    /// The group epoch this replica has adopted.
    pub(crate) fn held_epoch(&self) -> u64 {
        self.held_epoch
    }

    /// Whether this replica believes it leads its group.
    pub(crate) fn is_primary(&self) -> bool {
        self.is_primary
    }

    /// Process incarnation: bumped by every crash recovery.
    pub(crate) fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The fabric time of the earliest pending retransmission.
    pub(crate) fn next_retransmit(&self) -> Option<u64> {
        self.in_flight.iter().map(|(_, e)| e.next_retx).min()
    }

    /// Where `req_id`'s write sits in `in_flight`, or where it would go.
    fn slot(&self, req_id: u64) -> Result<usize, usize> {
        self.in_flight
            .binary_search_by_key(&req_id, |(rid, _)| *rid)
    }

    /// Feeds one frame from node `src`, pushing what it does onto `out`.
    /// Frames other than `ShardReq`, `Replicate`, `ReplAck` and
    /// `Promote` are ignored.
    pub(crate) fn on_frame(&mut self, src: usize, msg: FleetMsg, out: &mut Vec<Output>) {
        match msg {
            FleetMsg::ShardReq { req_id, key } => self.request(req_id, key, out),
            FleetMsg::Replicate {
                req_id,
                group,
                epoch,
                pos,
                key,
            } => {
                // THE epoch fence: a backup refuses writes from any
                // epoch older than the one it adopted, answering with
                // the newer epoch so the stale primary learns it is
                // fenced. The NoEpochFence mutation deletes exactly this.
                let fenced = self.fence && epoch < self.held_epoch;
                if epoch > self.held_epoch {
                    // A newer primary exists: adopt its epoch and stand
                    // down whatever this replica was doing as leader.
                    self.stand_down(epoch, false, out);
                }
                let rec = EffectRecord {
                    epoch,
                    pos,
                    req_id,
                    key,
                };
                let ok = !fenced && self.store(rec);
                // An ack granted *before* adopting the newer epoch is
                // fine (that write reached this log and survives any
                // promotion); one granted to an epoch already deposed
                // here is split brain.
                if ok && epoch < self.held_epoch {
                    out.push(Output::AckedDeposed {
                        req_id,
                        epoch,
                        held: self.held_epoch,
                    });
                }
                let epoch = if ok { epoch } else { self.held_epoch };
                let ack = FleetMsg::ReplAck {
                    req_id,
                    group,
                    epoch,
                    pos,
                    ok,
                };
                out.push(Output::Send(src, ack));
            }
            FleetMsg::ReplAck {
                req_id, epoch, ok, ..
            } => match self.slot(req_id) {
                Ok(i) if ok => self.in_flight[i].1.acks.insert(src),
                // Fenced: a backup taught us a newer epoch.
                Ok(_) if epoch > self.held_epoch => self.stand_down(epoch, true, out),
                _ => {} // completed or abandoned
            },
            FleetMsg::Promote { epoch, primary, .. } if epoch >= self.held_epoch => {
                self.held_epoch = epoch;
                self.is_primary = primary as usize == self.index;
                // Writes minted under an older epoch may no longer
                // complete (their acks would race the new fence): the
                // router re-dispatches under the new epoch and the log
                // dedup keeps the effect at-most-once.
                let seen = &mut self.seen;
                self.in_flight.retain(|(rid, e)| {
                    let keep = e.rec.epoch >= epoch;
                    if !keep {
                        seen.remove(rid);
                    }
                    keep
                });
            }
            _ => {}
        }
    }

    /// A `ShardReq`: refuse unless leading, absorb duplicates, or start
    /// the conversion.
    fn request(&mut self, req_id: u64, key: u64, out: &mut Vec<Output>) {
        if !self.is_primary {
            // The router re-elects on this refusal.
            out.push(Output::Reply(req_id, failed("not-primary")));
            return;
        }
        // One walk of the window: the entry either answers the
        // duplicate or is the slot the new request claims.
        match self.seen.entry(req_id) {
            Entry::Occupied(seen) => match seen.get() {
                // A replayed datagram for an answered request: re-send
                // the cached reply — no second effect.
                Some(cached) => {
                    let cached = cached.clone();
                    out.extend([Output::Absorbed, Output::Reply(req_id, cached)]);
                }
                // Already converting or replicating: drop the duplicate.
                None => out.push(Output::Absorbed),
            },
            Entry::Vacant(slot) => {
                // The durable log dedups across restarts and
                // promotions: an effect it already holds must not
                // happen twice, so the re-serve is read-only.
                let read_only = self.log.contains_req(req_id);
                if read_only {
                    out.push(Output::Absorbed);
                }
                slot.insert(None);
                out.push(Output::Convert {
                    req_id,
                    key,
                    read_only,
                });
            }
        }
    }

    /// Stores a replicated record at its position. A position already
    /// held acks only an identical record (the mutant compares without
    /// the epoch); the next position appends durably; a gap refuses
    /// until anti-entropy repairs it.
    fn store(&mut self, rec: EffectRecord) -> bool {
        match self.log.records().get(rec.pos as usize) {
            Some(have) if self.fence => *have == rec,
            Some(have) => (have.pos, have.req_id, have.key) == (rec.pos, rec.req_id, rec.key),
            None => rec.pos == self.log.len() && self.log.append_replicated(rec).is_ok(),
        }
    }

    /// Adopts the newer `epoch` and stops leading: every in-flight write
    /// is abandoned and counted as fenced, and with `answer` each is
    /// refused `stale-epoch` to the router.
    fn stand_down(&mut self, epoch: u64, answer: bool, out: &mut Vec<Output>) {
        self.held_epoch = epoch;
        self.is_primary = false;
        if !self.in_flight.is_empty() {
            out.push(Output::Fenced(self.in_flight.len() as u64));
        }
        for (rid, _) in self.in_flight.drain(..) {
            self.seen.remove(&rid);
            if answer {
                out.push(Output::Reply(rid, failed("stale-epoch")));
            }
        }
    }

    /// Records an answer in the dedup window and sends it.
    fn answer(&mut self, req_id: u64, outcome: WireOutcome, out: &mut Vec<Output>) {
        self.seen.insert(req_id, Some(outcome.clone()));
        out.push(Output::Reply(req_id, outcome));
    }

    /// Feeds a finished conversion, pushing what it does onto `out`. A
    /// reading with a new effect is appended durably and replicated
    /// before it is answered; errors, sheds and read-only re-serves are
    /// answered at once.
    pub(crate) fn on_converted(
        &mut self,
        req_id: u64,
        key: u64,
        read_only: bool,
        outcome: WireOutcome,
        out: &mut Vec<Output>,
    ) {
        if !self.is_primary {
            // Demoted mid-conversion: the result must not be
            // acknowledged under a dead claim to leadership.
            self.seen.remove(&req_id);
        } else if read_only || !matches!(outcome, WireOutcome::Reading { .. }) {
            self.answer(req_id, outcome, out);
        } else {
            match self.log.append(self.held_epoch, req_id, key) {
                Ok(rec) => {
                    let entry = Replicating {
                        outcome,
                        rec,
                        acks: SmallSet::default(),
                        next_retx: 0, // transmit on the next drive
                    };
                    match self.slot(req_id) {
                        Ok(i) => self.in_flight[i].1 = entry,
                        Err(i) => self.in_flight.insert(i, (req_id, entry)),
                    }
                }
                Err(_) => self.answer(req_id, failed("log-append"), out),
            }
        }
    }

    /// The drive tick, pushing what it does onto `out`: (re)transmits
    /// each write to the `live_siblings` (node ids) that have not acked
    /// it, then completes, in `req_id` order, every write all of them
    /// have acked — a sibling killed mid-flight leaves the quorum.
    pub(crate) fn drive(
        &mut self,
        now: u64,
        live_siblings: impl Iterator<Item = usize> + Clone,
        out: &mut Vec<Output>,
    ) {
        let group = self.group as u32;
        let acked = |acks: &SmallSet| live_siblings.clone().all(|n| acks.contains(n));
        for (req_id, entry) in &mut self.in_flight {
            if acked(&entry.acks) || entry.next_retx > now {
                continue;
            }
            let EffectRecord {
                epoch, pos, key, ..
            } = entry.rec;
            for n in live_siblings.clone().filter(|&n| !entry.acks.contains(n)) {
                let msg = FleetMsg::Replicate {
                    req_id: *req_id,
                    group,
                    epoch,
                    pos,
                    key,
                };
                out.push(Output::Send(n, msg));
            }
            entry.next_retx = now + RETRANSMIT_MS;
        }
        let seen = &mut self.seen;
        self.in_flight.retain_mut(|(req_id, entry)| {
            if !acked(&entry.acks) {
                return true;
            }
            out.push(Output::Completed {
                req_id: *req_id,
                pos: entry.rec.pos,
            });
            seen.insert(*req_id, Some(entry.outcome.clone()));
            out.push(Output::Reply(*req_id, entry.outcome.clone()));
            false
        });
    }

    /// Crash recovery: the process comes back as a backup of a new
    /// incarnation over its reopened `log`, holding the highest epoch
    /// its durable state proves (`snapshot_epoch` or the log's last
    /// record). The dedup window and every in-flight write died with
    /// the process.
    pub(crate) fn recover(&mut self, log: EffectLog, snapshot_epoch: u64) {
        self.held_epoch = self.held_epoch.max(snapshot_epoch.max(log.last_epoch()));
        self.log = log;
        self.is_primary = false;
        self.incarnation += 1;
        self.seen.clear();
        self.in_flight.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;
    use std::sync::Arc;

    use dst::{SimDisk, SimDiskProfile, SimFs};

    use super::*;

    /// Node ids in these tests: the primary is 0, its siblings 1 and
    /// 2, and the router 9.
    const PRIMARY: usize = 0;
    const ROUTER: usize = 9;

    fn replica(index: usize, fence: bool) -> Replica {
        let disk: Arc<dyn SimFs> = Arc::new(SimDisk::new(7, SimDiskProfile::pristine()));
        let (log, _) = EffectLog::open(disk, Path::new("/r/effects.log")).expect("log opens");
        Replica::new(0, index, log, fence)
    }

    fn reading() -> WireOutcome {
        WireOutcome::Reading {
            value_c: 85.0,
            fresh: true,
            age_ms: 0,
        }
    }

    fn replicate(req_id: u64, epoch: u64, pos: u64) -> FleetMsg {
        FleetMsg::Replicate {
            req_id,
            group: 0,
            epoch,
            pos,
            key: req_id,
        }
    }

    fn ack(req_id: u64, epoch: u64, pos: u64, ok: bool) -> Output {
        let msg = FleetMsg::ReplAck {
            req_id,
            group: 0,
            epoch,
            pos,
            ok,
        };
        Output::Send(PRIMARY, msg)
    }

    fn promote(epoch: u64, primary: u32) -> FleetMsg {
        FleetMsg::Promote {
            req_id: 0,
            group: 0,
            epoch,
            primary,
        }
    }

    /// Sibling's durable ack of `req_id`, the group's first record.
    fn acked(req_id: u64) -> FleetMsg {
        FleetMsg::ReplAck {
            req_id,
            group: 0,
            epoch: 0,
            pos: 0,
            ok: true,
        }
    }

    /// What one frame from `src` makes `r` do.
    fn frame(r: &mut Replica, src: usize, msg: FleetMsg) -> Vec<Output> {
        let mut out = Vec::new();
        r.on_frame(src, msg, &mut out);
        out
    }

    /// What one drive tick at `now` makes `r` do.
    fn drive(r: &mut Replica, now: u64, live_siblings: &[usize]) -> Vec<Output> {
        let mut out = Vec::new();
        r.drive(now, live_siblings.iter().copied(), &mut out);
        out
    }

    /// Takes `req_id` on primary `p` from request to in-flight write.
    fn write(p: &mut Replica, req_id: u64) {
        let convert = Output::Convert {
            req_id,
            key: req_id,
            read_only: false,
        };
        let req = FleetMsg::ShardReq {
            req_id,
            key: req_id,
        };
        assert_eq!(frame(p, ROUTER, req), vec![convert]);
        let mut out = Vec::new();
        p.on_converted(req_id, req_id, false, reading(), &mut out);
        assert!(out.is_empty());
    }

    /// The writes `p` has in flight, completed by a drive with no live
    /// sibling left to wait for.
    fn in_flight(p: &mut Replica) -> Vec<u64> {
        drive(p, 1_000, &[])
            .iter()
            .filter_map(|o| match o {
                Output::Completed { req_id, .. } => Some(*req_id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn backup_refuses_a_replicate_below_its_held_epoch() {
        let mut b = replica(1, true);
        assert!(frame(&mut b, ROUTER, promote(2, 0)).is_empty());
        let out = frame(&mut b, PRIMARY, replicate(5, 1, 0));
        assert_eq!(
            out,
            vec![ack(5, 2, 0, false)],
            "refusal names the held epoch"
        );
        assert!(b.log().is_empty());

        // The NoEpochFence mutant acks the deposed epoch — and says so.
        let mut m = replica(1, false);
        frame(&mut m, ROUTER, promote(2, 0));
        let out = frame(&mut m, PRIMARY, replicate(5, 1, 0));
        let deposed = Output::AckedDeposed {
            req_id: 5,
            epoch: 1,
            held: 2,
        };
        assert_eq!(out, vec![deposed, ack(5, 1, 0, true)]);
        assert_eq!(m.log().len(), 1);
    }

    #[test]
    fn a_held_position_acks_only_an_identical_record_and_a_gap_appends_nothing() {
        let mut b = replica(1, true);
        assert_eq!(
            frame(&mut b, PRIMARY, replicate(5, 1, 0)),
            vec![ack(5, 1, 0, true)]
        );
        // A retransmission of the same record re-acks.
        assert_eq!(
            frame(&mut b, PRIMARY, replicate(5, 1, 0)),
            vec![ack(5, 1, 0, true)]
        );
        // A conflicting record at a held position refuses.
        assert_eq!(
            frame(&mut b, PRIMARY, replicate(6, 1, 0)),
            vec![ack(6, 1, 0, false)]
        );
        // A gap refuses and appends nothing.
        assert_eq!(
            frame(&mut b, PRIMARY, replicate(7, 1, 3)),
            vec![ack(7, 1, 3, false)]
        );
        assert_eq!(b.log().len(), 1);
        assert_eq!(b.log().records()[0].req_id, 5);
    }

    #[test]
    fn a_refusal_with_a_newer_epoch_stands_the_primary_down() {
        let mut p = replica(0, true);
        write(&mut p, 11);
        write(&mut p, 12);
        let refusal = FleetMsg::ReplAck {
            req_id: 11,
            group: 0,
            epoch: 3,
            pos: 0,
            ok: false,
        };
        let stale = || failed("stale-epoch");
        assert_eq!(
            frame(&mut p, 1, refusal),
            vec![
                Output::Fenced(2),
                Output::Reply(11, stale()),
                Output::Reply(12, stale())
            ]
        );
        assert!(!p.is_primary());
        assert_eq!(p.held_epoch(), 3);
        assert!(in_flight(&mut p).is_empty(), "every write abandoned");
        let req = FleetMsg::ShardReq { req_id: 13, key: 1 };
        assert_eq!(
            frame(&mut p, ROUTER, req),
            vec![Output::Reply(13, failed("not-primary"))]
        );
    }

    #[test]
    fn a_promote_abandons_only_writes_minted_under_an_older_epoch() {
        let mut p = replica(0, true);
        write(&mut p, 21); // minted under epoch 0
        frame(&mut p, ROUTER, promote(1, 0));
        assert!(p.is_primary());
        write(&mut p, 22); // minted under epoch 1
        frame(&mut p, ROUTER, promote(1, 0));
        assert_eq!(in_flight(&mut p), vec![22]);
        assert_eq!(p.log().records()[1].epoch, 1);
    }

    #[test]
    fn a_write_completes_only_when_every_live_sibling_acked() {
        let mut p = replica(0, true);
        write(&mut p, 31);
        let ship = |to| Output::Send(to, replicate(31, 0, 0));
        assert_eq!(drive(&mut p, 0, &[1, 2]), vec![ship(1), ship(2)]);
        assert_eq!(p.next_retransmit(), Some(RETRANSMIT_MS));
        assert!(frame(&mut p, 1, acked(31)).is_empty());
        assert!(
            drive(&mut p, 10, &[1, 2]).is_empty(),
            "sibling 2 has not acked"
        );
        // Past the retransmit pause, only the silent sibling hears again.
        assert_eq!(drive(&mut p, RETRANSMIT_MS, &[1, 2]), vec![ship(2)]);
        // Sibling 2 dies: the quorum shrinks to the acked sibling.
        let done = Output::Completed { req_id: 31, pos: 0 };
        assert_eq!(
            drive(&mut p, 50, &[1]),
            vec![done, Output::Reply(31, reading())]
        );
        // A replay of the answered request re-sends the cached reply.
        let req = FleetMsg::ShardReq {
            req_id: 31,
            key: 31,
        };
        assert_eq!(
            frame(&mut p, ROUTER, req),
            vec![Output::Absorbed, Output::Reply(31, reading())]
        );
    }

    #[test]
    fn a_write_completes_with_siblings_at_any_node_id() {
        // The simulator's node ids are `group × replication + r`: a wide
        // fleet's siblings sit past any fixed-width ack mask.
        let mut p = replica(0, true);
        write(&mut p, 51);
        let siblings = [130, 131];
        let ship = |to| Output::Send(to, replicate(51, 0, 0));
        assert_eq!(drive(&mut p, 0, &siblings), vec![ship(130), ship(131)]);
        for n in siblings {
            assert!(frame(&mut p, n, acked(51)).is_empty());
        }
        let done = Output::Completed { req_id: 51, pos: 0 };
        assert_eq!(
            drive(&mut p, 1, &siblings),
            vec![done, Output::Reply(51, reading())]
        );
    }

    #[test]
    fn a_duplicate_while_the_first_converts_is_absorbed_without_a_second_convert() {
        let mut p = replica(0, true);
        let req = || FleetMsg::ShardReq {
            req_id: 61,
            key: 61,
        };
        let convert = Output::Convert {
            req_id: 61,
            key: 61,
            read_only: false,
        };
        assert_eq!(frame(&mut p, ROUTER, req()), vec![convert]);
        for _ in 0..2 {
            assert_eq!(frame(&mut p, ROUTER, req()), vec![Output::Absorbed]);
        }
        // The first attempt's conversion still lands as the one write.
        let mut out = Vec::new();
        p.on_converted(61, 61, false, reading(), &mut out);
        assert!(out.is_empty());
        assert_eq!(in_flight(&mut p), vec![61]);
        assert_eq!(p.log().len(), 1);
    }

    #[test]
    fn a_demoted_conversion_frees_its_id_so_a_retry_converts_again() {
        let mut p = replica(0, true);
        let req = || FleetMsg::ShardReq {
            req_id: 71,
            key: 71,
        };
        let convert = || Output::Convert {
            req_id: 71,
            key: 71,
            read_only: false,
        };
        assert_eq!(frame(&mut p, ROUTER, req()), vec![convert()]);
        // Demoted mid-conversion: the result is dropped unanswered.
        frame(&mut p, ROUTER, promote(1, 1));
        let mut out = Vec::new();
        p.on_converted(71, 71, false, reading(), &mut out);
        assert!(out.is_empty());
        assert!(p.log().is_empty(), "nothing recorded");
        // Re-promoted: the id left the window, so the retry converts.
        frame(&mut p, ROUTER, promote(2, 0));
        assert_eq!(frame(&mut p, ROUTER, req()), vec![convert()]);
        assert_eq!(frame(&mut p, ROUTER, req()), vec![Output::Absorbed]);
    }

    #[test]
    fn recovery_dedups_through_the_durable_log() {
        let mut p = replica(0, true);
        write(&mut p, 41);
        // The reopened log holds the write under epoch 4; the snapshot
        // proves only epoch 2.
        let mut log = replica(1, true).log;
        log.append(4, 41, 41).expect("append");
        p.recover(log, 2);
        assert_eq!(
            (p.incarnation(), p.held_epoch(), p.is_primary()),
            (1, 4, false)
        );
        assert!(in_flight(&mut p).is_empty(), "in-flight writes died");
        frame(&mut p, ROUTER, promote(5, 0));
        let req = FleetMsg::ShardReq {
            req_id: 41,
            key: 41,
        };
        let convert = Output::Convert {
            req_id: 41,
            key: 41,
            read_only: true,
        };
        assert_eq!(frame(&mut p, ROUTER, req), vec![Output::Absorbed, convert]);
    }

    #[test]
    fn elect_ranks_epoch_first_then_length_and_breaks_ties_low() {
        let rec = |epoch, pos| EffectRecord {
            epoch,
            pos,
            req_id: pos,
            key: 0,
        };
        let long_old = [rec(1, 0), rec(1, 1), rec(1, 2)];
        let short_new = [rec(2, 0)];
        let empty: [EffectRecord; 0] = [];
        let logs = |v: [Option<&[EffectRecord]>; 4]| elect(v);
        assert_eq!(
            logs([Some(&long_old), Some(&short_new), Some(&short_new), None]),
            Some(1),
            "epoch beats length; lowest index wins the tie"
        );
        assert_eq!(
            logs([Some(&empty), Some(&long_old), None, Some(&short_new)]),
            Some(3)
        );
        assert_eq!(
            logs([None, Some(&empty), Some(&long_old[..1]), Some(&long_old)]),
            Some(3),
            "same epoch: longer wins"
        );
        assert_eq!(logs([None, None, None, None]), None);
        assert_eq!(logs([Some(&empty), Some(&empty), None, None]), Some(0));
        assert_eq!(rank(&short_new), (2, 1));
        assert_eq!(rank(&empty), (0, 0));
    }
}
