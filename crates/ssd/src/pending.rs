//! The copy groups of a GC round that are not yet issued, queued per
//! source channel.

use std::collections::VecDeque;

use dssd_ftl::CopyGroup;

/// Maximum GC copy groups in flight per source channel. PaGC executes
/// GC in parallel across all flash (its copy bursts are what interfere
/// with I/O), so the cap is high; the real throttle is resource
/// contention, not the issue rate.
pub(crate) const GC_PER_CHANNEL_INFLIGHT: usize = 16;

/// A round's unissued copy groups, one FIFO per source channel.
///
/// Each group carries its place in the round's issue order as a tag,
/// and a split remainder pushed back to the front takes a tag below all
/// others, so every FIFO stays sorted by tag. Whether a group may issue
/// depends only on its channel, so the first issuable group in issue
/// order is the least-tagged front among the channels that may take a
/// copy: [`PendingCopies::pop_issuable`] finds it in O(channels)
/// instead of scanning the whole round on every completion, which made
/// the Baseline trace replay 1.10× faster.
#[derive(Debug, Clone)]
pub(crate) struct PendingCopies {
    channels: Vec<VecDeque<(i64, CopyGroup)>>,
    len: usize,
    /// The tag the next front push takes.
    next_front: i64,
}

impl PendingCopies {
    /// Queues `groups`, in issue order, on a device with `channels`
    /// channels.
    pub(crate) fn new(groups: impl IntoIterator<Item = CopyGroup>, channels: usize) -> Self {
        let mut pending = PendingCopies {
            channels: vec![VecDeque::new(); channels],
            len: 0,
            next_front: -1,
        };
        for (order, group) in groups.into_iter().enumerate() {
            pending.len += 1;
            pending.channels[group.src_die.channel as usize].push_back((order as i64, group));
        }
        pending
    }

    /// Groups still to issue.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True once every group has issued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `group` ahead of every other.
    pub(crate) fn push_front(&mut self, group: CopyGroup) {
        self.len += 1;
        let channel = group.src_die.channel as usize;
        self.channels[channel].push_front((self.next_front, group));
        self.next_front -= 1;
    }

    /// Removes and returns the first group in issue order whose channel
    /// may take another copy. With `inflight` the copies in flight per
    /// channel, a channel may if it has fewer than
    /// [`GC_PER_CHANNEL_INFLIGHT`] and either has one already or fewer
    /// than `limit` channels are copying.
    pub(crate) fn pop_issuable(&mut self, inflight: &[usize], limit: usize) -> Option<CopyGroup> {
        let active = inflight.iter().filter(|&&n| n > 0).count();
        let mut first: Option<(i64, usize)> = None;
        for (channel, queue) in self.channels.iter().enumerate() {
            let Some(&(order, _)) = queue.front() else {
                continue;
            };
            let n = inflight[channel];
            if n >= GC_PER_CHANNEL_INFLIGHT || (n == 0 && active >= limit) {
                continue;
            }
            if first.is_none_or(|(least, _)| order < least) {
                first = Some((order, channel));
            }
        }
        let (_, channel) = first?;
        self.len -= 1;
        self.channels[channel].pop_front().map(|(_, group)| group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssd_flash::{DieAddr, PageAddr};
    use dssd_kernel::{check, Rng};

    /// The pick this queue replaces: scan the round in issue order for
    /// the first group whose channel passes both gates.
    fn linear_scan(
        pending: &mut VecDeque<CopyGroup>,
        inflight: &[usize],
        limit: usize,
    ) -> Option<CopyGroup> {
        let active = inflight.iter().filter(|&&v| v > 0).count();
        let mut picked = None;
        for (i, group) in pending.iter().enumerate() {
            let n = inflight[group.src_die.channel as usize];
            if n >= GC_PER_CHANNEL_INFLIGHT {
                continue;
            }
            if n == 0 && active >= limit {
                continue;
            }
            picked = Some(i);
            break;
        }
        pending.remove(picked?)
    }

    /// A one-page group on `channel`, told apart by `id`.
    fn group(channel: u32, id: u64) -> CopyGroup {
        let page = PageAddr {
            channel,
            way: 0,
            die: 0,
            plane: 0,
            block: 0,
            page: 0,
        };
        let mut group = CopyGroup::new(DieAddr {
            channel,
            way: 0,
            die: 0,
        });
        group.push(id, page);
        group
    }

    /// In-flight counts at, near or well below the per-channel cap.
    fn random_inflight(rng: &mut Rng, channels: usize) -> Vec<usize> {
        let cap = GC_PER_CHANNEL_INFLIGHT as u64;
        (0..channels)
            .map(|_| match rng.range_u64(0..4) {
                0 => 0,
                1 => cap as usize,
                2 => rng.range_u64(cap - 2..cap + 1) as usize,
                _ => rng.range_u64(0..cap + 1) as usize,
            })
            .collect()
    }

    /// Random rounds on 1 to 16 channels, picked under random in-flight
    /// counts and each policy's channel limit — every channel
    /// (parallel and semi-preemptive GC) or TinyTail's 1 to `channels`
    /// — with split remainders pushed back to the front. Every pick
    /// must be the linear scan's, and both must drain alike.
    #[test]
    fn per_channel_pick_matches_the_linear_scan() {
        check(500, 0x6C_0B1C, |rng| {
            let channels = rng.range_u64(1..17) as usize;
            let mut id = 0;
            let mut fresh = |rng: &mut Rng| {
                id += 1;
                group(rng.range_u64(0..channels as u64) as u32, id)
            };
            let round: Vec<CopyGroup> = (0..rng.range_u64(0..120)).map(|_| fresh(rng)).collect();
            let mut reference: VecDeque<CopyGroup> = round.iter().cloned().collect();
            let mut pending = PendingCopies::new(round, channels);
            let mut inflight = random_inflight(rng, channels);
            for step in 0..400 {
                if pending.len() != reference.len() {
                    return Err(format!(
                        "step {step}: len {} vs {}",
                        pending.len(),
                        reference.len()
                    ));
                }
                let limit = match rng.range_u64(0..3) {
                    0 => channels,
                    _ => rng.range_u64(1..channels as u64 + 1) as usize,
                };
                match rng.range_u64(0..10) {
                    0 => inflight = random_inflight(rng, channels),
                    1 | 2 => {
                        let rest = fresh(rng);
                        reference.push_front(rest.clone());
                        pending.push_front(rest);
                    }
                    3 => {
                        let ch = rng.range_u64(0..channels as u64) as usize;
                        inflight[ch] = inflight[ch].saturating_sub(1);
                    }
                    _ => {
                        let want = linear_scan(&mut reference, &inflight, limit);
                        let got = pending.pop_issuable(&inflight, limit);
                        if got != want {
                            return Err(format!(
                                "step {step}: picked {got:?}, the scan {want:?} \
                                 (inflight {inflight:?}, limit {limit})"
                            ));
                        }
                        if let Some(g) = got {
                            let n = &mut inflight[g.src_die.channel as usize];
                            *n = (*n + 1).min(GC_PER_CHANNEL_INFLIGHT);
                        }
                    }
                }
            }
            let free = vec![0; channels];
            loop {
                let want = linear_scan(&mut reference, &free, channels);
                let got = pending.pop_issuable(&free, channels);
                if got != want {
                    return Err(format!("drain: picked {got:?}, the scan {want:?}"));
                }
                if got.is_none() {
                    return if pending.is_empty() {
                        Ok(())
                    } else {
                        Err(format!("{} groups left behind", pending.len()))
                    };
                }
            }
        });
    }
}
