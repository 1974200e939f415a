//! Small measurement helpers: order statistics, memory high-water marks,
//! scratch directories and content digests.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median of `samples` (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q` quantile (`q` in (0, 1]).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q` quantile.
pub fn beyond(samples: usize, q: f64) -> usize {
    samples - ((q * samples as f64).ceil() as usize).clamp(1, samples)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `VmHWM` (peak resident set) of a live process, in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of the largest waited-for descendant, in MiB
/// (`getrusage(RUSAGE_CHILDREN).ru_maxrss`).
pub fn children_max_rss_mb() -> f64 {
    // struct rusage on 64-bit Linux: two struct timevals (2 x i64 each)
    // followed by fourteen longs, of which ru_maxrss (KiB) is the first
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of the size and alignment of
    // struct rusage on 64-bit Linux, and getrusage writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    usage[4] as f64 / 1024.0
}

/// A scratch directory under the checkout's `.bench_work/`, removed on
/// drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<tag>-<pid>`, clearing any leftover.
    pub fn new(tag: &str) -> Self {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cannot create .bench_work scratch directory");
        // absolute, so child processes agree on it whatever their cwd
        Self(std::fs::canonicalize(&dir).expect("scratch directory exists"))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // leave .bench_work itself only if another run still uses it
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// FNV-1a 64 of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the program's sources (`Cargo.*` plus every file under
/// `crates/`, in path order), so a result names the code it measured
/// even in a checkout without version-control metadata.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(&p, out),
                Ok(t) if t.is_file() => out.push(p),
                _ => {}
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", fnv64(&all))
}

/// A fixed unit of host work owned by the benchmark that the program
/// under test never touches: an event-queue churn, number formatting and
/// parsing, small-allocation churn and random updates over a 2 MiB
/// table. Returns a value that depends on all of it.
fn reference_work(table: &mut [u64], seed: u64) -> u64 {
    let mut rng = SplitMix64(seed);
    let mut acc = 0u64;
    let mut heap = std::collections::BinaryHeap::new();
    for i in 0..20_000u64 {
        heap.push(std::cmp::Reverse((rng.next_u64() >> 40, i)));
        if i % 3 == 2 {
            acc ^= heap.pop().map_or(0, |std::cmp::Reverse((t, _))| t);
        }
    }
    let mut text = String::new();
    for _ in 0..3000 {
        use std::fmt::Write as _;
        let _ = write!(text, "{},", (rng.next_u64() >> 11) as f64 * 1e-9);
    }
    acc ^= text
        .split(',')
        .filter_map(|x| x.parse::<f64>().ok())
        .map(f64::to_bits)
        .fold(0, |a, b| a ^ b);
    let mut keep = Vec::new();
    for _ in 0..5000 {
        let v: Vec<u64> = vec![rng.next_u64(); 1 + (rng.next_u64() % 64) as usize];
        if v[0].is_multiple_of(4) {
            keep.push(v);
        }
    }
    acc ^= keep.len() as u64;
    drop(keep);
    let n = table.len();
    for _ in 0..60_000 {
        let z = rng.next_u64();
        let i = (z as usize) % n;
        table[i] = table[i].wrapping_add(z);
        acc ^= table[(i.wrapping_mul(7) + 13) % n];
    }
    std::hint::black_box(acc)
}

/// Host speed as the run saw it. On a shared machine the same work takes
/// longer while other tenants load the host, for seconds at a time;
/// timing [`reference_work`] between measured operations gives the host
/// speed the run saw. The work runs on every core at once, because the
/// measured jobs do: a tenant that slows one core slows a parallel job
/// by the slower core, which a one-thread probe free to run on the other
/// core does not see.
pub struct HostProbe {
    /// One table per core.
    tables: Vec<Vec<u64>>,
    state: u64,
    samples: Vec<f64>,
}

impl HostProbe {
    /// The scale of normalised timings: a timing divided by
    /// [`HostProbe::slowdown`] reads as seconds on a host where one probe
    /// takes this long.
    pub const REFERENCE_S: f64 = 3.5e-3;

    pub fn new(cores: usize) -> Self {
        Self {
            tables: vec![vec![0; 1 << 18]; cores.max(1)],
            state: 0,
            samples: Vec::new(),
        }
    }

    /// Runs the reference work once on every core and records the
    /// seconds until the last one finishes.
    pub fn probe(&mut self) {
        let state = self.state;
        let t = Instant::now();
        let (first, rest) = self.tables.split_first_mut().expect("at least one core");
        self.state = std::thread::scope(|s| {
            let others: Vec<_> = (1..)
                .zip(rest)
                .map(|(k, table)| s.spawn(move || reference_work(table, state ^ k)))
                .collect();
            others
                .into_iter()
                .fold(reference_work(first, state), |acc, h| {
                    acc ^ h.join().expect("probe thread")
                })
        });
        self.samples.push(secs(t));
    }

    /// Host slowdown over the run: median probe time over the reference.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / Self::REFERENCE_S
    }

    /// Probes taken, and their fastest and median seconds.
    pub fn summary(&self) -> (usize, f64, f64) {
        let fastest = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        (self.samples.len(), fastest, median(&self.samples))
    }
}

/// SplitMix64: the benchmark's input generator.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
    }
}
