//! Model checking of the FTL against a reference map, on the kernel's
//! seeded [`check`] harness.
//!
//! A plain `HashMap<Lpn, u64>` (LPN → write version) acts as the model;
//! the FTL runs the same operation sequence with GC interleaved. After
//! every sequence the two must agree on which pages exist, and the FTL's
//! internal structures must be consistent. After every operation each
//! superblock's valid-page counter must equal the sum over its
//! sub-blocks, and every GC round must pick the victim that summing
//! sub-blocks per sealed superblock picks.

use std::collections::HashMap;

use dssd::flash::FlashGeometry;
use dssd::ftl::{Ftl, FtlConfig, GcPolicy};
use dssd::kernel::{check, Rng};

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64),
    Trim(u64),
    Gc,
}

/// Writes, trims and GC rounds weighted 4 : 1 : 1, over LPNs 0..200.
fn any_op(rng: &mut Rng) -> Op {
    match rng.index(6) {
        0..=3 => Op::Write(rng.range_u64(0..200)),
        4 => Op::Trim(rng.range_u64(0..200)),
        _ => Op::Gc,
    }
}

fn small_ftl() -> Ftl {
    let config = FtlConfig {
        overprovision: 0.3,
        gc_threshold_free: 3,
        gc_hard_free: 1,
        policy: GcPolicy::Parallel,
    };
    Ftl::new(FlashGeometry::tiny(), config)
}

/// Valid pages in superblock `sb`, summed over its sub-blocks' counters.
fn summed_valid_pages(ftl: &Ftl, sb: u32) -> u64 {
    let geo = ftl.layout().geometry();
    ftl.layout()
        .sub_blocks(sb)
        .map(|b| u64::from(ftl.mapping().valid_in_block(geo.block_index(b))))
        .sum()
}

/// Every superblock's counter equals the sum over its sub-blocks.
fn counts_agree(ftl: &Ftl) -> Result<(), String> {
    for sb in 0..ftl.layout().superblock_count() {
        let (counted, summed) = (ftl.superblock_valid_pages(sb), summed_valid_pages(ftl, sb));
        if counted != summed {
            return Err(format!(
                "superblock {sb} counts {counted} valid pages, sub-blocks sum {summed}"
            ));
        }
    }
    Ok(())
}

/// The greedy pick by the O(blocks) scan: the first sealed superblock
/// with the fewest valid pages, each counted by summing its sub-blocks.
fn reference_victim(ftl: &Ftl) -> Option<u32> {
    ftl.sealed_superblocks().iter().copied().min_by_key(|&sb| summed_valid_pages(ftl, sb))
}

/// Runs one full, synchronous GC round, checking its victim against the
/// reference scan and the counters after every copy.
fn run_gc(ftl: &mut Ftl) -> Result<(), String> {
    let want = reference_victim(ftl);
    let Some(round) = ftl.start_gc_round() else {
        return match want {
            None => Ok(()),
            Some(sb) => Err(format!("no GC round, but superblock {sb} is sealed")),
        };
    };
    if Some(round.victim) != want {
        return Err(format!("victim {} where the sub-block scan picks {want:?}", round.victim));
    }
    counts_agree(ftl)?;
    for group in &round.groups {
        let mut pages = group.pages();
        while !pages.is_empty() {
            let dst = ftl.alloc_gc_group(pages.len() as u32);
            let (now, rest) = pages.split_at(dst.len().min(pages.len()));
            for (&(lpn, src), d) in now.iter().zip(dst.addrs()) {
                ftl.complete_copy(lpn, src, d);
                counts_agree(ftl)?;
            }
            pages = rest;
        }
    }
    ftl.finish_gc_round(&round);
    counts_agree(ftl)
}

/// Runs `ops` on a fresh FTL and on the model, then checks that they
/// agree and that the FTL's maps are a bijection.
fn agrees_with_model(ops: &[Op]) -> Result<(), String> {
    let mut ftl = small_ftl();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut version = 0u64;
    let lpns = ftl.lpn_count();
    let mut groups = Vec::new();

    for &op in ops {
        match op {
            Op::Write(raw) => {
                let lpn = raw % lpns;
                if !ftl.write_pages(&[lpn], &mut groups) {
                    // Out of space: reclaim synchronously and retry.
                    run_gc(&mut ftl)?;
                    if !ftl.write_pages(&[lpn], &mut groups) {
                        return Err(format!("write of LPN {lpn} still blocked after GC"));
                    }
                }
                version += 1;
                model.insert(lpn, version);
            }
            Op::Trim(raw) => {
                let lpn = raw % lpns;
                let ftl_had = ftl.trim(lpn);
                let model_had = model.remove(&lpn).is_some();
                if ftl_had != model_had {
                    return Err(format!("trim disagreement on LPN {lpn}"));
                }
            }
            Op::Gc => run_gc(&mut ftl)?,
        }
        counts_agree(&ftl)?;
    }

    // Agreement: exactly the model's pages are mapped.
    for lpn in 0..lpns {
        if ftl.translate(lpn).is_some() != model.contains_key(&lpn) {
            return Err(format!("existence disagreement on LPN {lpn}"));
        }
    }

    // Internal consistency: forward and reverse map are a bijection.
    let geo = *ftl.layout().geometry();
    for lpn in 0..lpns {
        if let Some(addr) = ftl.translate(lpn) {
            if ftl.mapping().lpn_of(geo.page_index(addr)) != Some(lpn) {
                return Err(format!("reverse map of LPN {lpn} disagrees"));
            }
        }
    }
    Ok(())
}

#[test]
fn ftl_agrees_with_reference_model() {
    check(256, 0xF71_0000, |rng| {
        let ops: Vec<Op> = (0..1 + rng.index(399)).map(|_| any_op(rng)).collect();
        agrees_with_model(&ops).map_err(|why| format!("{why} after {} ops", ops.len()))
    });
}

#[test]
fn gc_preserves_every_mapping_under_pressure() {
    check(500, 0x6C_0000, |rng| {
        let mut ftl = small_ftl();
        ftl.prefill_with(rng, 1, 0.4);
        let before: Vec<bool> = (0..ftl.lpn_count())
            .map(|l| ftl.translate(l).is_some())
            .collect();
        counts_agree(&ftl)?;
        for _ in 0..4 {
            run_gc(&mut ftl)?;
        }
        for (lpn, had) in before.iter().enumerate() {
            if ftl.translate(lpn as u64).is_some() != *had {
                return Err(format!("GC changed existence of LPN {lpn}"));
            }
        }
        Ok(())
    });
}
