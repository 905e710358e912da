//! A std-only property-test harness on the kernel's own [`Rng`].
//!
//! The workspace builds offline, so property tests cannot pull in an
//! external crate. [`check`] runs a property over many seeded random
//! cases instead; it does not shrink, but it names the failing case's
//! seed, and `check(1, that_seed, property)` replays exactly that case.

use crate::Rng;

/// Runs `property` on `cases` generators seeded `seed, seed + 1, …` and
/// panics on the first case that returns `Err`, naming its seed.
///
/// # Panics
///
/// Panics if any case fails.
///
/// # Example
///
/// ```
/// use dssd_kernel::check;
///
/// check(64, 7, |rng| {
///     let x = rng.range_u64(0..100);
///     if x * 2 >= x { Ok(()) } else { Err(format!("{x} doubled shrank")) }
/// });
/// ```
pub fn check(cases: u32, seed: u64, mut property: impl FnMut(&mut Rng) -> Result<(), String>) {
    for case in 0..cases {
        let case_seed = seed.wrapping_add(u64::from(case));
        if let Err(why) = property(&mut Rng::new(case_seed)) {
            panic!(
                "property failed on case {case} of {cases} (seed {case_seed:#x}; \
                 replay it with check(1, {case_seed:#x}, ..)): {why}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_sees_every_case_once() {
        let mut firsts = Vec::new();
        check(16, 100, |rng| {
            firsts.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(firsts.len(), 16);
        // Case i draws from Rng::new(seed + i).
        assert_eq!(firsts[3], Rng::new(103).next_u64());
    }

    #[test]
    #[should_panic(expected = "case 5 of 10 (seed 0x2d; replay it with check(1, 0x2d, ..)): five")]
    fn failure_names_the_case_seed() {
        let mut case = 0;
        check(10, 40, |_| {
            case += 1;
            if case == 6 {
                Err("five".into())
            } else {
                Ok(())
            }
        });
    }
}
