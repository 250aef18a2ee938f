//! MPI-style sub-communicators for hierarchical parallelism.
//!
//! OMEN's four-level decomposition (bias × momentum × energy × space) maps
//! each level onto a communicator split. A [`Comm`] is a view over a subset
//! of world ranks; collectives inside it are built from world point-to-point
//! messages with tags namespaced by a communicator id, so concurrent
//! collectives on disjoint communicators cannot cross-talk.
//!
//! SPMD contract (same as MPI): every member of a communicator calls its
//! collectives in the same order. The contract is *verified*, not assumed:
//! every collective runs the fingerprint round of
//! [`crate::runtime`] — op kind, communicator id, op counter and payload
//! length travel with the first message, and a divergent member turns the
//! whole round into a typed [`omen_num::OmenError::ScheduleDivergence`] on
//! every rank instead of a hang.

use crate::runtime::{
    decode_f64s, encode_f64s, sum_contributions, CollectiveKind, RankCtx, LEN_UNCHECKED,
};
use omen_num::wire::{Dec, Enc};
use omen_num::{OmenError, OmenResult};
use std::cell::RefCell;

/// A sub-communicator: an ordered subset of world ranks.
pub struct Comm<'a> {
    ctx: &'a RankCtx,
    /// Global rank of each member, ordered; `members[local_rank]` is me.
    members: Vec<usize>,
    my_index: usize,
    comm_id: u64,
    op_counter: RefCell<u64>,
    epoch_counter: RefCell<u64>,
}

impl<'a> Comm<'a> {
    /// The world communicator containing every rank.
    pub fn world(ctx: &'a RankCtx) -> Comm<'a> {
        let members: Vec<usize> = (0..ctx.size()).collect();
        let my_index = ctx.rank();
        Comm {
            ctx,
            members,
            my_index,
            comm_id: 1,
            op_counter: RefCell::new(0),
            epoch_counter: RefCell::new(0),
        }
    }

    /// Local rank within this communicator.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global rank of local member `i`.
    pub fn global_rank(&self, i: usize) -> usize {
        self.members[i]
    }

    /// Advances and returns this communicator's *epoch* counter — a
    /// lockstep sequence number for sweep-scoped point-to-point protocols
    /// (e.g. the `omen-sched` coordinator/worker rounds). Like the
    /// collective op counter, it never travels on the wire by itself:
    /// every member advancing it in the same SPMD order yields the same
    /// value on every rank without communication, and protocols stamp
    /// their messages with it so traffic from a superseded round is
    /// recognized instead of corrupting the current one.
    pub fn next_epoch(&self) -> u64 {
        let mut c = self.epoch_counter.borrow_mut();
        *c += 1;
        *c
    }

    fn next_op(&self) -> u64 {
        let mut c = self.op_counter.borrow_mut();
        *c += 1;
        *c
    }

    /// Wire tag of user tag `tag` on this communicator: bit 62 marks
    /// point-to-point traffic, the comm id namespaces it.
    fn p2p_tag(&self, tag: u64) -> u64 {
        (1 << 62) | ((self.comm_id & 0x3FFF_FFFF) << 24) | (tag & 0xFF_FFFF)
    }

    /// Point-to-point send to a *local* rank with a user tag.
    pub fn send(&self, to_local: usize, tag: u64, data: Vec<u8>) {
        self.ctx
            .send(self.members[to_local], self.p2p_tag(tag), data);
    }

    /// Point-to-point receive from a *local* rank.
    ///
    /// # Errors
    ///
    /// [`OmenError::RecvTimeout`] when no matching message arrives within
    /// the runtime's receive bound, [`OmenError::ChannelClosed`] when the
    /// runtime is tearing down; both report the out-of-order buffer state.
    pub fn recv(&self, from_local: usize, tag: u64) -> OmenResult<Vec<u8>> {
        self.ctx.recv(self.members[from_local], self.p2p_tag(tag))
    }

    /// Any-source receive on this communicator: the next message carrying
    /// `tag` from *any* member, waiting at most `timeout`. Returns the
    /// sender's *local* rank with the payload, or `None` when the poll
    /// window elapsed. Buffered matches drain lowest-sender-first, and
    /// non-matching arrivals are parked for later receives.
    ///
    /// # Errors
    ///
    /// [`OmenError::ChannelClosed`] when the runtime is tearing down;
    /// [`OmenError::Deserialize`] when a matching message arrived from a
    /// rank outside this communicator (a tag-namespace violation).
    pub fn try_recv_any(
        &self,
        tag: u64,
        timeout: std::time::Duration,
    ) -> OmenResult<Option<(usize, Vec<u8>)>> {
        match self.ctx.try_recv_any(self.p2p_tag(tag), timeout)? {
            None => Ok(None),
            Some((global, data)) => {
                let local = self.members.iter().position(|&g| g == global).ok_or(
                    OmenError::Deserialize {
                        context: "any-source sender not a member of this communicator",
                    },
                )?;
                Ok(Some((local, data)))
            }
        }
    }

    /// Received-but-unconsumed point-to-point messages in this rank's
    /// out-of-order buffer (world-wide, not per-communicator; messages from
    /// in-flight collectives of faster ranks excluded). See
    /// [`RankCtx::pending_p2p_messages`].
    pub fn pending_p2p_messages(&self) -> usize {
        self.ctx.pending_p2p_messages()
    }

    /// Allreduce (sum) over this communicator.
    ///
    /// # Errors
    ///
    /// [`OmenError::ScheduleDivergence`] when a member entered a different
    /// collective (or a different vector length) this round; receive
    /// failures propagate as [`OmenError::RecvTimeout`] /
    /// [`OmenError::ChannelClosed`].
    pub fn allreduce_sum(&self, x: &[f64]) -> OmenResult<Vec<f64>> {
        let op = self.next_op();
        let up = encode_f64s(x);
        let len = up.len() as u64;
        let (_, down) = self.ctx.collective_round(
            &self.members,
            self.my_index,
            self.comm_id,
            op,
            CollectiveKind::AllreduceSum,
            len,
            up,
            sum_contributions,
        )?;
        Ok(decode_f64s(&down))
    }

    /// Allgather: every member contributes one payload and receives all of
    /// them, ordered by local rank (empty contributions keep their slot).
    /// One verified round — contributions travel up to local rank 0, the
    /// length-prefixed concatenation travels back down.
    ///
    /// # Errors
    ///
    /// [`OmenError::ScheduleDivergence`] when a member entered a different
    /// collective this round; receive failures propagate as
    /// [`OmenError::RecvTimeout`] / [`OmenError::ChannelClosed`];
    /// [`OmenError::Deserialize`] when the downward table is malformed.
    pub fn allgather(&self, data: Vec<u8>) -> OmenResult<Vec<Vec<u8>>> {
        let op = self.next_op();
        let (parts, down) = self.ctx.collective_round(
            &self.members,
            self.my_index,
            self.comm_id,
            op,
            CollectiveKind::Allgather,
            LEN_UNCHECKED,
            data,
            |parts| {
                let mut e = Enc::new();
                for p in parts {
                    e.bytes(p);
                }
                e.finish()
            },
        )?;
        if let Some(parts) = parts {
            return Ok(parts);
        }
        let mut d = Dec::new(&down, "allgather table");
        let parts = (0..self.size())
            .map(|_| d.bytes().map(<[u8]>::to_vec))
            .collect::<OmenResult<Vec<_>>>()?;
        d.finish()?;
        Ok(parts)
    }

    /// Health barrier: every member reports its local verdict for a
    /// protocol phase and all of them return the same one — `Ok` when
    /// every member is healthy, otherwise the lowest failing local rank's
    /// error as it crosses the wire ([`omen_num::wire`]: solver and
    /// communicator failures exactly, anything else as
    /// [`OmenError::RankFailed`] naming that member's global rank). One
    /// [`Self::allgather`] round, entered unconditionally, so a failure on
    /// one rank never diverges the collective schedule.
    ///
    /// # Errors
    ///
    /// The agreed failure, identical on every member; or the communicator
    /// faults of [`Self::allgather`].
    pub fn agree(&self, local: Option<&OmenError>) -> OmenResult<()> {
        let mut e = Enc::new();
        if let Some(err) = local {
            e.error(err, self.ctx.rank());
        }
        let verdicts = self.allgather(e.finish())?;
        match verdicts.iter().find(|v| !v.is_empty()) {
            None => Ok(()),
            Some(v) => {
                let mut d = Dec::new(v, "health-barrier verdict");
                let err = d.error()?;
                d.finish()?;
                Err(err)
            }
        }
    }

    /// Splits this communicator by `color`; members with the same color end
    /// up in the same sub-communicator, ordered by `key` (ties by current
    /// local rank).
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Self::allgather`] failures
    /// ([`OmenError::ScheduleDivergence`], [`OmenError::RecvTimeout`],
    /// [`OmenError::ChannelClosed`]); [`OmenError::Deserialize`] when the
    /// exchanged membership table is malformed or does not contain this
    /// rank.
    pub fn split(&self, color: u64, key: u64) -> OmenResult<Comm<'a>> {
        const CTX: &str = "comm split membership";
        let mut mine = Enc::new();
        mine.u64(color);
        mine.u64(key);
        mine.usize(self.ctx.rank());
        let mut triples = self
            .allgather(mine.finish())?
            .iter()
            .map(|part| {
                let mut d = Dec::new(part, CTX);
                let triple = (d.u64()?, d.u64()?, d.usize()?);
                d.finish()?;
                Ok(triple)
            })
            .collect::<OmenResult<Vec<(u64, u64, usize)>>>()?;
        triples.sort_unstable();

        let members: Vec<usize> = triples
            .iter()
            .filter(|&&(c, _, _)| c == color)
            .map(|&(_, _, g)| g)
            .collect();
        let my_index = members
            .iter()
            .position(|&g| g == self.ctx.rank())
            .ok_or(OmenError::Deserialize { context: CTX })?;
        // Deterministic child id derived from parent id and color.
        let comm_id = (self
            .comm_id
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(color.wrapping_add(1).wrapping_mul(0x85EB_CA6B)))
            & 0x7FFF_FFFF;
        Ok(Comm {
            ctx: self.ctx,
            members,
            my_index,
            comm_id,
            op_counter: RefCell::new(0),
            epoch_counter: RefCell::new(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_ranks;

    #[test]
    fn world_matches_ctx() {
        let out = run_ranks(4, |ctx| {
            let w = Comm::world(ctx);
            (w.rank(), w.size())
        });
        for (r, (wr, ws)) in out.unwrap_all().into_iter().enumerate() {
            assert_eq!((wr, ws), (r, 4));
        }
    }

    #[test]
    fn split_groups_and_reduces_independently() {
        // 6 ranks in 2 colors: evens and odds. Each group sums its ranks.
        let out = run_ranks(6, |ctx| {
            let w = Comm::world(ctx);
            let color = (ctx.rank() % 2) as u64;
            let sub = w.split(color, ctx.rank() as u64).unwrap();
            assert_eq!(sub.size(), 3);
            let s = sub.allreduce_sum(&[ctx.rank() as f64]).unwrap();
            s[0]
        });
        for (r, v) in out.unwrap_all().into_iter().enumerate() {
            let expect = if r % 2 == 0 {
                0.0 + 2.0 + 4.0
            } else {
                1.0 + 3.0 + 5.0
            };
            assert_eq!(v, expect, "rank {r}");
        }
    }

    #[test]
    fn nested_splits_form_grid() {
        // 8 ranks → 2×2×2 grid via two successive splits.
        let out = run_ranks(8, |ctx| {
            let w = Comm::world(ctx);
            let level1 = w.split((ctx.rank() / 4) as u64, ctx.rank() as u64).unwrap();
            assert_eq!(level1.size(), 4);
            let level2 = level1
                .split((level1.rank() / 2) as u64, level1.rank() as u64)
                .unwrap();
            assert_eq!(level2.size(), 2);
            // Reduce within the innermost pair.
            let s = level2.allreduce_sum(&[1.0]).unwrap();
            s[0]
        });
        assert!(out.unwrap_all().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn comm_try_recv_any_reports_local_ranks() {
        use std::time::Duration;
        // 4 ranks split into pairs; the pair leader collects one any-source
        // message and must see the sender's *local* rank (1), not global.
        let out = run_ranks(4, |ctx| {
            let w = Comm::world(ctx);
            let sub = w.split((ctx.rank() / 2) as u64, 0).unwrap();
            if sub.rank() == 0 {
                let (from, data) = sub
                    .try_recv_any(3, Duration::from_secs(5))
                    .unwrap()
                    .expect("partner sends promptly");
                assert_eq!(from, 1);
                assert_eq!(data, vec![ctx.rank() as u8 + 1]);
                assert!(sub
                    .try_recv_any(3, Duration::from_millis(5))
                    .unwrap()
                    .is_none());
                1
            } else {
                sub.send(0, 3, vec![ctx.rank() as u8]);
                0
            }
        });
        assert_eq!(out.unwrap_all().iter().sum::<i32>(), 2);
    }

    #[test]
    fn concurrent_group_collectives_do_not_crosstalk() {
        // Both groups run many interleaved allreduces; sums must stay exact.
        let out = run_ranks(4, |ctx| {
            let w = Comm::world(ctx);
            let sub = w.split((ctx.rank() % 2) as u64, 0).unwrap();
            let mut acc = 0.0;
            for i in 0..50 {
                let v = sub.allreduce_sum(&[(ctx.rank() + i) as f64]).unwrap();
                acc += v[0];
            }
            acc
        });
        // Group evens: ranks 0,2 → sum per step = (0+i)+(2+i) = 2+2i.
        let even: f64 = (0..50).map(|i| 2.0 + 2.0 * i as f64).sum();
        let odd: f64 = (0..50).map(|i| 4.0 + 2.0 * i as f64).sum();
        let results = out.unwrap_all();
        assert_eq!(results[0], even);
        assert_eq!(results[2], even);
        assert_eq!(results[1], odd);
        assert_eq!(results[3], odd);
    }

    #[test]
    fn allgather_orders_parts_by_local_rank_in_one_round() {
        // Rank r contributes r bytes of value r; rank 0 contributes nothing
        // and must still keep its (empty) slot.
        for n in [1usize, 2, 5] {
            let out = run_ranks(n, |ctx| {
                Comm::world(ctx)
                    .allgather(vec![ctx.rank() as u8; ctx.rank()])
                    .unwrap()
            });
            // One verified round: a message up and one down per non-root
            // member, none at all on a communicator of one.
            let total = out.total_stats();
            assert_eq!(total.collectives, n as u64);
            assert_eq!(total.messages_sent, 2 * (n as u64 - 1));
            let expect: Vec<Vec<u8>> = (0..n).map(|r| vec![r as u8; r]).collect();
            for parts in out.unwrap_all() {
                assert_eq!(parts, expect, "n={n}");
            }
        }
    }

    #[test]
    fn allgather_and_agree_on_sub_communicators() {
        let failure = |rank: usize| OmenError::SingularBlock {
            block: rank,
            energy: 0.25,
            pivot: 0,
            magnitude: 1e-300,
        };
        // Pairs {0,1} and {2,3}; the second pair fails on both members, the
        // first is healthy. split = 1 round, allgather = 1, agree = 1.
        let out = run_ranks(4, |ctx| {
            let w = Comm::world(ctx);
            let sub = w.split((ctx.rank() / 2) as u64, 0).unwrap();
            let parts = sub.allgather(vec![ctx.rank() as u8]).unwrap();
            let mine = failure(ctx.rank());
            let verdict = sub.agree((ctx.rank() >= 2).then_some(&mine));
            (parts, verdict, ctx.stats().collectives)
        });
        for (rank, (parts, verdict, collectives)) in out.unwrap_all().into_iter().enumerate() {
            let base = (rank / 2 * 2) as u8;
            assert_eq!(parts, vec![vec![base], vec![base + 1]]);
            // The lowest failing member's error, bit for bit, on both.
            let expect = if rank < 2 { Ok(()) } else { Err(failure(2)) };
            assert_eq!(verdict, expect, "rank {rank}");
            assert_eq!(collectives, 3);
        }
    }

    #[test]
    fn agree_degrades_untransportable_errors_identically_everywhere() {
        // `Deserialize` holds a `&'static str` and cannot cross the wire:
        // every member — the failing one included — gets the same
        // `RankFailed` naming the failing member's *global* rank.
        let out = run_ranks(4, |ctx| {
            let w = Comm::world(ctx);
            let sub = w.split(u64::from(ctx.rank() >= 1), 0).unwrap();
            let mine = OmenError::Deserialize { context: "probe" };
            sub.agree((ctx.rank() == 3).then_some(&mine))
        });
        let results = out.unwrap_all();
        assert_eq!(results[0], Ok(()));
        for r in &results[1..] {
            assert_eq!(
                r,
                &Err(OmenError::RankFailed {
                    rank: 3,
                    detail: OmenError::Deserialize { context: "probe" }.to_string(),
                })
            );
        }
    }

    #[test]
    fn split_keeps_colours_apart_above_2_pow_53() {
        // Adjacent colours that collapse to one value as `f64`.
        let out = run_ranks(4, |ctx| {
            let w = Comm::world(ctx);
            let sub = w.split((1u64 << 53) + (ctx.rank() % 2) as u64, 0).unwrap();
            (
                sub.size(),
                sub.allreduce_sum(&[ctx.rank() as f64]).unwrap()[0],
            )
        });
        assert_eq!(
            out.unwrap_all(),
            vec![(2, 2.0), (2, 4.0), (2, 2.0), (2, 4.0)]
        );
    }

    #[test]
    fn allreduce_against_allgather_is_one_round_divergence_on_all_ranks() {
        let t0 = std::time::Instant::now();
        // What each rank enters as its first collective on the world comm.
        let entered: [fn(&Comm) -> OmenResult<()>; 3] = [
            |w| w.allgather(vec![1]).map(drop),
            |w| w.allgather(vec![1]).map(drop),
            |w| w.allreduce_sum(&[1.0]).map(drop),
        ];
        let out = run_ranks(3, |ctx| entered[ctx.rank()](&Comm::world(ctx))).flattened();
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        for r in &out.results {
            match r {
                Err(OmenError::ScheduleDivergence {
                    rank,
                    expected,
                    got,
                }) => {
                    assert_eq!(*rank, 2);
                    assert!(expected.contains("allgather#1"), "expected fp: {expected}");
                    assert!(got.starts_with("allreduce_sum#1"), "got fp: {got}");
                }
                other => panic!("expected ScheduleDivergence, got {other:?}"),
            }
        }
        assert_eq!(out.total_stats().collectives, 3, "one round per member");
    }

    #[test]
    fn absent_member_turns_allgather_into_a_typed_timeout() {
        use crate::runtime::run_ranks_with_timeout;
        // Every collective the runtime has, entered by ranks 0 and 2 while
        // rank 1 has already returned: both live ranks must get a typed
        // timeout, never a hang.
        let collectives: [fn(&Comm) -> OmenResult<()>; 2] = [
            |w| w.allgather(vec![7]).map(drop),
            |w| w.allreduce_sum(&[7.0]).map(drop),
        ];
        for (i, enter) in collectives.into_iter().enumerate() {
            let out = run_ranks_with_timeout(3, std::time::Duration::from_millis(100), |ctx| {
                if ctx.rank() == 1 {
                    return Ok(());
                }
                enter(&Comm::world(ctx))
            })
            .flattened();
            assert_eq!(out.results[1], Ok(()), "collective {i}");
            for rank in [0, 2] {
                assert!(
                    matches!(out.results[rank], Err(OmenError::RecvTimeout { .. })),
                    "collective {i}, rank {rank}: {:?}",
                    out.results[rank]
                );
            }
        }
    }

    #[test]
    fn sub_comm_skipped_allgather_is_schedule_divergence() {
        // Four ranks split into two pairs; local rank 1 of the second pair
        // skips an allgather on its sub-communicator and goes straight to the
        // pair's allreduce. Both members of that pair must fail with the
        // same typed ScheduleDivergence; the healthy pair must be
        // untouched and reduce correctly.
        let out = run_ranks(4, |ctx| -> OmenResult<f64> {
            let w = Comm::world(ctx);
            let sub = w.split((ctx.rank() / 2) as u64, 0)?;
            if ctx.rank() != 3 {
                // analyze: allow(spmd-divergence, deliberately divergent schedule under test)
                sub.allgather(vec![1])?;
            }
            let s = sub.allreduce_sum(&[1.0])?;
            Ok(s[0])
        })
        .flattened();
        assert_eq!(out.results[0], Ok(2.0));
        assert_eq!(out.results[1], Ok(2.0));
        for rank in [2, 3] {
            match &out.results[rank] {
                Err(OmenError::ScheduleDivergence {
                    rank: divergent,
                    expected,
                    got,
                }) => {
                    assert_eq!(*divergent, 3);
                    assert!(expected.contains("allgather#1"), "expected fp: {expected}");
                    assert!(got.contains("allreduce_sum#1"), "got fp: {got}");
                }
                other => panic!("rank {rank}: expected ScheduleDivergence, got {other:?}"),
            }
        }
    }
}
