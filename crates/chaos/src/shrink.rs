//! A generic greedy-fixpoint shrinking engine.
//!
//! Extracted from the chaos explorer's plan shrinker so other harnesses
//! (notably the SCVM fuzzer in `smartcrowd-fuzz`) can minimize their own
//! counterexamples with the same loop: walk a list of *axes* — each a
//! function proposing smaller candidates — accept any candidate the
//! judge confirms still fails, and repeat the whole cycle until a full
//! pass makes no progress or the run budget is spent.
//!
//! Within one axis the engine is greedy with *restart-at-index*: when a
//! candidate is accepted, the axis re-proposes from the new best and the
//! engine retries the same position (after a successful "drop element
//! i", index `i` holds the next element). This is exactly the structure
//! the chaos shrinker used inline; [`crate::explore::shrink`] is now a
//! thin wrapper over this engine.

/// The outcome of a shrink: the smallest accepted candidate, the
/// judge's evidence for it, and how many candidate runs were spent.
#[derive(Debug, Clone)]
pub struct Shrunk<C, I> {
    /// The minimized candidate (still failing).
    pub best: C,
    /// The judge's info (e.g. the failure) for `best`.
    pub info: I,
    /// Candidate evaluations consumed.
    pub runs: usize,
}

/// One shrinking axis: maps the current best candidate to an ordered
/// list of strictly "smaller" candidates to try in order.
pub(crate) type Axis<'a, C> = &'a dyn Fn(&C) -> Vec<C>;

/// Greedily minimizes `initial` along `axes` until a fixpoint or until
/// `budget` candidate evaluations have been spent.
///
/// Each axis maps the current best to an ordered list of strictly
/// "smaller" candidates. `judge` returns `Some(info)` when a candidate
/// still exhibits the failure (and is therefore accepted as the new
/// best) and `None` when it no longer does. An axis that proposes a
/// candidate the judge accepts is immediately re-queried from the new
/// best; the outer cycle over all axes repeats while any axis makes
/// progress.
///
/// The returned [`Shrunk::best`] is a guaranteed reproducer whenever
/// the judge is deterministic: it was accepted by an actual evaluation,
/// never by inference.
pub fn greedy_fixpoint<C: Clone, I>(
    initial: C,
    initial_info: I,
    budget: usize,
    axes: &[Axis<'_, C>],
    judge: &mut dyn FnMut(&C) -> Option<I>,
) -> Shrunk<C, I> {
    let mut best = initial;
    let mut info = initial_info;
    let mut runs = 0usize;
    let mut progress = true;
    while progress && runs < budget {
        progress = false;
        for axis in axes {
            let mut candidates = axis(&best);
            let mut i = 0;
            while i < candidates.len() && runs < budget {
                runs += 1;
                if let Some(new_info) = judge(&candidates[i]) {
                    best = candidates[i].clone();
                    info = new_info;
                    progress = true;
                    // Re-propose from the new best; the same index now
                    // holds the next candidate to try.
                    candidates = axis(&best);
                } else {
                    i += 1;
                }
            }
        }
    }
    Shrunk { best, info, runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shrinking a byte vector by element drops reaches the minimal
    /// failing core (here: "contains a 7").
    #[test]
    fn drops_to_minimal_core() {
        let drop_one = |v: &Vec<u8>| {
            (0..v.len())
                .map(|i| {
                    let mut c = v.clone();
                    c.remove(i);
                    c
                })
                .collect::<Vec<_>>()
        };
        let out = greedy_fixpoint(
            vec![1, 7, 3, 9, 7],
            (),
            1000,
            &[&drop_one],
            &mut |c: &Vec<u8>| c.contains(&7).then_some(()),
        );
        assert_eq!(out.best, vec![7]);
        assert!(out.runs > 0);
    }

    /// Multiple axes run in order and cycle to a fixpoint.
    #[test]
    fn axes_cycle_until_fixpoint() {
        // State: (len, value). Axis A shrinks len, axis B shrinks value;
        // the failure needs len + value >= 4, so the fixpoint depends on
        // alternating between both axes.
        type S = (u32, u32);
        let shrink_len = |s: &S| {
            (s.0 > 0)
                .then(|| (s.0 - 1, s.1))
                .into_iter()
                .collect::<Vec<_>>()
        };
        let shrink_val = |s: &S| {
            (s.1 > 0)
                .then(|| (s.0, s.1 - 1))
                .into_iter()
                .collect::<Vec<_>>()
        };
        let out = greedy_fixpoint(
            (10, 10),
            (),
            1000,
            &[&shrink_len, &shrink_val],
            &mut |s: &S| (s.0 + s.1 >= 4).then_some(()),
        );
        assert_eq!(out.best.0 + out.best.1, 4, "fixpoint at the boundary");
    }

    /// The budget caps evaluations even when progress is still possible.
    #[test]
    fn budget_caps_runs() {
        let drop_one = |v: &Vec<u8>| {
            (0..v.len())
                .map(|i| {
                    let mut c = v.clone();
                    c.remove(i);
                    c
                })
                .collect::<Vec<_>>()
        };
        let big: Vec<u8> = vec![7; 100];
        let out = greedy_fixpoint(big, (), 5, &[&drop_one], &mut |c: &Vec<u8>| {
            c.contains(&7).then_some(())
        });
        assert_eq!(out.runs, 5);
        assert_eq!(out.best.len(), 95, "five accepted drops");
    }

    /// The judge's info always matches the accepted best.
    #[test]
    fn info_tracks_best() {
        let dec = |v: &u32| (*v > 0).then(|| v - 1).into_iter().collect::<Vec<_>>();
        let out = greedy_fixpoint(9u32, 9u32, 1000, &[&dec], &mut |c: &u32| {
            (*c >= 3).then_some(*c)
        });
        assert_eq!(out.best, 3);
        assert_eq!(out.info, 3);
    }
}
