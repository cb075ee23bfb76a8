//! The seeded load generator: everything the deployment is sent is made
//! here from `--seed` alone, as wire bytes, before any clock starts. The
//! same seed gives byte-identical operation streams (`--self-test`).

use safeweb_labels::LabelSet;
use safeweb_mdt::labels::mdt_label;
use safeweb_mdt::password_for;
use safeweb_mdt::registry::RegistryConfig;
use safeweb_mdt::units::PATIENT_REPORT_TOPIC;
use safeweb_stomp::codec::encode;
use safeweb_stomp::{Command, Frame};

/// MDT accounts in the fixed registry (1 region × 1 hospital × `MDTS`).
pub const MDTS: usize = 100;
/// Patients per MDT: the paper's ~100-row front page.
pub const PATIENTS_PER_MDT: usize = 100;
/// Cases in the registry; patient ids run `1..=CASES` in MDT order.
pub const CASES: usize = MDTS * PATIENTS_PER_MDT;

/// The registry every run builds; only its seed varies.
pub fn registry(seed: u64) -> RegistryConfig {
    RegistryConfig {
        regions: 1,
        hospitals_per_region: 1,
        mdts_per_hospital: MDTS,
        patients_per_mdt: PATIENTS_PER_MDT,
        seed,
    }
}

/// Name of the `k`-th MDT (`registry::generate` names by shape).
pub fn mdt_name(k: usize) -> String {
    format!("mdt-0-0-{k}")
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2⁻⁴⁰ for these `n`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A Fisher–Yates shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Which frontend route a read goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /mdt/:mid`: the uncached ~100-row labelled front page.
    Page,
    /// `GET /metrics/:mid`: the `get_cached` few-hundred-byte document.
    Metrics,
}

/// How a read stream picks routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMix {
    Pages,
    Metrics,
    /// One front page to three cached metrics, the page's position in
    /// each group of four drawn from the seed.
    OnePageInFour,
}

/// One HTTP request, ready to write to the socket.
#[derive(Debug, Clone, Copy)]
pub struct Read<'a> {
    pub route: Route,
    pub mdt: usize,
    pub bytes: &'a [u8],
}

/// The request bytes for `route` as MDT `user` asking about MDT `target`.
pub fn request_bytes(route: Route, user: usize, target: usize) -> Vec<u8> {
    let (user, target) = (mdt_name(user), mdt_name(target));
    let path = match route {
        Route::Page => "mdt",
        Route::Metrics => "metrics",
    };
    let credentials = format!("{user}:{}", password_for(&user));
    format!(
        "GET /{path}/{target} HTTP/1.1\r\nhost: safeweb-bench\r\nauthorization: Basic {}\r\n\r\n",
        safeweb_http::base64::encode(credentials.as_bytes())
    )
    .into_bytes()
}

/// A seeded stream of reads: each MDT account asks for its own page,
/// accounts visited in a seeded round-robin.
#[derive(Debug, Clone)]
pub struct Reads {
    mix: ReadMix,
    pages: Vec<Vec<u8>>,
    metrics: Vec<Vec<u8>>,
    order: Vec<usize>,
    pos: usize,
    page_slot: usize,
    rng: Rng,
}

impl Reads {
    pub fn new(seed: u64, mix: ReadMix) -> Reads {
        let mut rng = Rng::new(seed ^ 0x7265_6164);
        Reads {
            mix,
            pages: (0..MDTS)
                .map(|k| request_bytes(Route::Page, k, k))
                .collect(),
            metrics: (0..MDTS)
                .map(|k| request_bytes(Route::Metrics, k, k))
                .collect(),
            order: rng.permutation(MDTS),
            pos: 0,
            page_slot: 0,
            rng,
        }
    }

    pub fn next(&mut self) -> Read<'_> {
        let route = match self.mix {
            ReadMix::Pages => Route::Page,
            ReadMix::Metrics => Route::Metrics,
            ReadMix::OnePageInFour => {
                if self.pos.is_multiple_of(4) {
                    self.page_slot = self.rng.below(4);
                }
                if self.pos % 4 == self.page_slot {
                    Route::Page
                } else {
                    Route::Metrics
                }
            }
        };
        let mdt = self.order[self.pos % MDTS];
        self.pos += 1;
        let bytes = match route {
            Route::Page => &self.pages[mdt],
            Route::Metrics => &self.metrics[mdt],
        };
        Read { route, mdt, bytes }
    }
}

/// One tumour-update event as a STOMP `SEND` frame.
#[derive(Debug, Clone)]
pub struct Update {
    /// Unique per stream; the merged record carries it as `marker`, which
    /// is how the generator sees the update become visible.
    pub marker: u64,
    /// Patient id, `1..=CASES`.
    pub case: usize,
    pub mdt: usize,
    pub frame: Frame,
}

impl Update {
    /// The document the storage unit merges this case into.
    pub fn doc_id(&self) -> String {
        format!("record-{}-{}", mdt_name(self.mdt), self.case)
    }

    pub fn bytes(&self) -> Vec<u8> {
        encode(&self.frame)
    }
}

const STAGES: [&str; 4] = ["I", "II", "III", "IV"];

/// A seeded stream of case updates. Cases are visited along a seeded
/// permutation, so the same case recurs only every [`CASES`] updates and
/// two updates in flight never collapse into one replicated revision.
#[derive(Debug, Clone)]
pub struct Updates {
    order: Vec<usize>,
    pos: usize,
    labels: Vec<String>,
    rng: Rng,
}

impl Updates {
    pub fn new(seed: u64) -> Updates {
        let mut rng = Rng::new(seed ^ 0x7570_6474);
        Updates {
            order: rng.permutation(CASES),
            pos: 0,
            labels: (0..MDTS)
                .map(|k| LabelSet::singleton(mdt_label(&mdt_name(k))).to_wire())
                .collect(),
            rng,
        }
    }

    pub fn next(&mut self) -> Update {
        let case = self.order[self.pos % CASES] + 1;
        self.pos += 1;
        let marker = self.pos as u64;
        let mdt = (case - 1) / PATIENTS_PER_MDT;
        let stage = STAGES[self.rng.below(STAGES.len())];
        let diagnosed = 2000 + self.rng.below(11);
        // The producer unit's attribute set (`units::data_producer`), with
        // the tumour payload extended by the marker.
        let frame = Frame::new(Command::Send)
            .with_header("destination", PATIENT_REPORT_TOPIC)
            .with_header("x-safeweb-labels", self.labels[mdt].as_str())
            .with_header("kind", "tumour")
            .with_header("type", "cancer")
            .with_header("case_id", case.to_string())
            .with_header("mdt", mdt_name(mdt))
            .with_header("hospital_id", "1")
            .with_header("region_id", "0")
            .with_body(format!(
                "{{\"stage\":\"{stage}\",\"diagnosed\":{diagnosed},\"marker\":{marker}}}"
            ));
        Update {
            marker,
            case,
            mdt,
            frame,
        }
    }
}

/// FNV-1a over the first `ops` operations of every stream `seed` makes.
pub fn stream_fingerprint(seed: u64, ops: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for mix in [ReadMix::Pages, ReadMix::Metrics, ReadMix::OnePageInFour] {
        let mut reads = Reads::new(seed, mix);
        for _ in 0..ops {
            eat(reads.next().bytes);
        }
    }
    let mut updates = Updates::new(seed);
    for _ in 0..ops {
        eat(&updates.next().bytes());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream_fingerprint(7, 500), stream_fingerprint(7, 500));
        assert_ne!(stream_fingerprint(7, 500), stream_fingerprint(8, 500));
    }

    #[test]
    fn mixed_reads_are_one_page_in_four() {
        let mut reads = Reads::new(3, ReadMix::OnePageInFour);
        for _ in 0..50 {
            let pages = (0..4).filter(|_| reads.next().route == Route::Page).count();
            assert_eq!(pages, 1);
        }
    }

    #[test]
    fn every_account_is_visited_once_per_round() {
        let mut reads = Reads::new(11, ReadMix::Pages);
        let mut seen: Vec<usize> = (0..MDTS).map(|_| reads.next().mdt).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..MDTS).collect::<Vec<_>>());
    }

    #[test]
    fn updates_do_not_repeat_a_case_within_a_round() {
        let mut updates = Updates::new(5);
        let mut cases: Vec<usize> = (0..CASES).map(|_| updates.next().case).collect();
        cases.sort_unstable();
        assert_eq!(cases, (1..=CASES).collect::<Vec<_>>());
        let u = updates.next();
        assert_eq!(u.marker, CASES as u64 + 1);
        assert_eq!(u.mdt, (u.case - 1) / PATIENTS_PER_MDT);
        assert!(u.doc_id().starts_with("record-mdt-0-0-"));
    }
}
