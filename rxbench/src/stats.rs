//! Order statistics and process counters the benchmark reports.

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rank {
    /// The sample at rank `ceil(q · n)` of the sorted samples.
    pub value: f64,
    /// Samples strictly above that rank: how many observations the
    /// percentile rests on in its tail. A p99 is only worth reporting when
    /// at least ten lie beyond it.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// Nearest-rank percentile of ascending `sorted` samples (`q` in
/// `0.0..=1.0`); `None` when there are no samples.
fn nearest_rank(sorted: &[f64], q: f64) -> Option<Rank> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Rank { value: sorted[rank - 1], beyond: n - rank, samples: n })
}

/// Sorts `samples` and takes the nearest-rank percentile.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<Rank> {
    samples.sort_by(f64::total_cmp);
    nearest_rank(samples, q)
}

/// Percentiles that stay steady on a shared host, kept in constant memory.
/// Samples arrive in time order and are cut into consecutive blocks of
/// `block` (the remainder joins the last block). Each block is reduced to
/// its nearest-rank percentiles at `qs` once the next block is full, and its
/// samples are dropped. [`BlockPercentiles::summary`] reports, per `q`, the
/// median over blocks: one block disturbed by a noisy neighbour moves it far
/// less than it moves a single percentile over all samples. Memory does not
/// grow with the sample count, so a faster receiver, which delivers more
/// frames per window, does not read as a larger `peak_rss_mb`.
#[derive(Debug)]
pub struct BlockPercentiles {
    block: usize,
    qs: Vec<f64>,
    /// Samples not yet reduced: at most two blocks' worth.
    pending: Vec<f64>,
    scratch: Vec<f64>,
    /// Per reduced block, its percentile at each of `qs`.
    reduced: Vec<Vec<Rank>>,
    samples: usize,
}

impl BlockPercentiles {
    /// Blocks of `block` samples, percentiles at each of `qs`.
    pub fn new(block: usize, qs: &[f64]) -> Self {
        let block = block.max(1);
        BlockPercentiles {
            block,
            qs: qs.to_vec(),
            pending: Vec::with_capacity(2 * block),
            scratch: Vec::with_capacity(2 * block),
            reduced: Vec::new(),
            samples: 0,
        }
    }

    /// Adds the next sample.
    pub fn push(&mut self, x: f64) {
        self.pending.push(x);
        self.samples += 1;
        if self.pending.len() == 2 * self.block {
            self.scratch.clear();
            self.scratch.extend(self.pending.drain(..self.block));
            self.reduced.push(block_ranks(&mut self.scratch, &self.qs));
        }
    }

    /// Per `q`, the median over blocks of the block percentile, with
    /// `beyond` the smallest per-block count of samples beyond the rank and
    /// `samples` the total; and the number of blocks. `None` without
    /// samples.
    pub fn summary(&self) -> Option<(Vec<Rank>, usize)> {
        let mut blocks = self.reduced.clone();
        if !self.pending.is_empty() {
            blocks.push(block_ranks(&mut self.pending.clone(), &self.qs));
        }
        if blocks.is_empty() {
            return None;
        }
        let ranks = (0..self.qs.len())
            .map(|i| {
                let values: Vec<f64> = blocks.iter().map(|b| b[i].value).collect();
                let beyond = blocks.iter().map(|b| b[i].beyond).min().unwrap_or(0);
                Rank { value: median(&values), beyond, samples: self.samples }
            })
            .collect();
        Some((ranks, blocks.len()))
    }
}

fn block_ranks(block: &mut [f64], qs: &[f64]) -> Vec<Rank> {
    block.sort_by(f64::total_cmp);
    qs.iter().filter_map(|&q| nearest_rank(block, q)).collect()
}

/// Median (nearest rank) of `samples`, `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    percentile(&mut v, 0.5).map_or(0.0, |r| r.value)
}

/// Arithmetic mean, `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Linux `USER_HZ`: the unit of the CPU-time fields of `/proc/<pid>/stat`.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of the whole process so far — every thread,
/// exited ones included (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric CPU tick field");
    (ticks(11) + ticks(12)) as f64 / CLOCK_TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_counts_the_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = nearest_rank(&sorted, 0.99).unwrap();
        assert_eq!(p99, Rank { value: 990.0, beyond: 10, samples: 1000 });
        let p50 = nearest_rank(&sorted, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        // Too few samples for a p99 with a tail: the rank is the maximum.
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        let r = nearest_rank(&small, 0.99).unwrap();
        assert_eq!((r.value, r.beyond), (50.0, 0));
    }

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[7.0], 0.0).unwrap().value, 7.0);
        assert_eq!(nearest_rank(&[7.0], 1.0).unwrap().value, 7.0);
        let mut v = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 0.5).unwrap().value, 2.0);
        assert_eq!(percentile(&mut v, 0.75).unwrap().value, 3.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn block_percentile_is_the_median_over_blocks() {
        // Three blocks of 100; the middle one is disturbed.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.extend((1..=100).map(|x| f64::from(x) * 10.0));
        v.extend((1..=100).map(f64::from));
        v.push(7.0); // the remainder joins the last block
        let mut b = BlockPercentiles::new(100, &[0.5, 0.99]);
        for &x in &v {
            b.push(x);
        }
        let (r, blocks) = b.summary().unwrap();
        assert_eq!(blocks, 3);
        assert_eq!(r[1].value, 99.0, "the disturbed block is outvoted");
        assert_eq!((r[1].beyond, r[1].samples), (1, 301));
        assert_eq!(r[0].value, 50.0);
        assert!(b.pending.len() < 200, "at most two blocks are held");
        // Fewer samples than one block: a single block.
        let mut b = BlockPercentiles::new(100, &[0.5]);
        for &x in &v[..50] {
            b.push(x);
        }
        assert_eq!(b.summary().map(|(r, n)| (r[0].value, n)), Some((25.0, 1)));
        assert_eq!(BlockPercentiles::new(100, &[0.5]).summary(), None);
    }

    #[test]
    fn process_counters_are_readable() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() >= before);
        assert!(peak_rss_mib() > 0.0);
    }
}
