//! The three workloads: their sizes, and the seeded request scripts the
//! closed loop and the traced replay both run.

use crate::rng::Rng;
use rx_gen::CatalogSpec;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Point queries and row fetches on a cached in-memory collection.
    Lookup,
    /// Full scans and index-filtered scans with an undersized document cache.
    Scan,
    /// Insert/delete churn beside point queries.
    Ingest,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Lookup, Workload::Scan, Workload::Ingest];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Scan => "scan",
            Workload::Ingest => "ingest",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The request kinds the workload issues.
    pub fn kinds(self) -> &'static [Kind] {
        match self {
            Workload::Lookup => &[Kind::Point, Kind::Fetch],
            Workload::Scan => &[Kind::Scan, Kind::Filter],
            Workload::Ingest => &[Kind::Insert, Kind::Delete, Kind::Point],
        }
    }
}

/// Sizes and settings of one workload run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Documents loaded at set-up that the workload never modifies.
    pub products: usize,
    /// Churn-pool documents loaded at set-up (`ingest` only); the writer
    /// deletes the oldest of them for every document it inserts.
    pub churn: usize,
    /// `DbConfig::doc_cache_bytes`.
    pub doc_cache_bytes: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// Description length of every generated product (bytes of text).
pub const DESCRIPTION_LEN: usize = 64;

impl Scale {
    /// The sizes `BENCHMARK.json`'s runs use.
    pub fn full(w: Workload) -> Scale {
        match w {
            Workload::Lookup => Scale {
                products: 20_000,
                churn: 0,
                doc_cache_bytes: 64 << 20,
                setups: 5,
            },
            Workload::Scan => Scale {
                products: 20_000,
                churn: 0,
                doc_cache_bytes: 1 << 20,
                setups: 5,
            },
            Workload::Ingest => Scale {
                products: 5_000,
                churn: 500,
                doc_cache_bytes: 64 << 20,
                setups: 5,
            },
        }
    }

    /// A few hundred documents: the self-test's scale.
    pub fn tiny(w: Workload) -> Scale {
        Scale {
            products: 300,
            churn: if w == Workload::Ingest { 40 } else { 0 },
            doc_cache_bytes: if w == Workload::Scan {
                16 << 10
            } else {
                4 << 20
            },
            setups: 1,
        }
    }

    /// The generator parameters: prices and discounts follow
    /// `CatalogSpec::price`/`discount`, so oracles compute answers from the
    /// spec without the engine.
    pub fn spec(&self, seed: u64) -> CatalogSpec {
        CatalogSpec {
            products: self.products,
            description_len: DESCRIPTION_LEN,
            seed,
            ..CatalogSpec::default()
        }
    }
}

/// A request kind; client latencies are kept per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `Query` with an equality predicate on the price index.
    Point,
    /// `FetchRow` by DocID.
    Fetch,
    /// `Query` with a predicate no index covers (full scan, one hit).
    Scan,
    /// `Query` with a `Discount >` predicate (containment index, filtering).
    Filter,
    /// `InsertRow` of a new product document.
    Insert,
    /// `DeleteRow` of the oldest churn document.
    Delete,
}

impl Kind {
    /// Every kind.
    pub const ALL: [Kind; 6] = [
        Kind::Point,
        Kind::Fetch,
        Kind::Scan,
        Kind::Filter,
        Kind::Insert,
        Kind::Delete,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::Fetch => "fetch",
            Kind::Scan => "scan",
            Kind::Filter => "filter",
            Kind::Insert => "insert",
            Kind::Delete => "delete",
        }
    }

    /// Dense index for per-kind arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One request of a script; keys are product indices of the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Query the products whose price equals product `.0`'s price.
    Point(usize),
    /// Fetch product `.0`'s row.
    Fetch(usize),
    /// Find product `.0` by name with no index.
    Scan(usize),
    /// Query the products whose discount exceeds `FILTER_THRESHOLDS[.0]`.
    Filter(usize),
    /// Insert the next new product.
    Insert,
    /// Delete the oldest churn document.
    Delete,
}

impl Op {
    /// The op's kind.
    pub fn kind(self) -> Kind {
        match self {
            Op::Point(_) => Kind::Point,
            Op::Fetch(_) => Kind::Fetch,
            Op::Scan(_) => Kind::Scan,
            Op::Filter(_) => Kind::Filter,
            Op::Insert => Kind::Insert,
            Op::Delete => Kind::Delete,
        }
    }
}

/// Discount thresholds of `Filter`. Discounts cycle over eight levels
/// `0.00..=0.35`, so these keep 3/8, 2/8 and 1/8 of the collection (the
/// 12–38% of documents the filtering plan re-evaluates).
pub const FILTER_THRESHOLDS: [f64; 3] = [0.24, 0.29, 0.34];

/// The table every workload queries.
pub const TABLE: &str = "products";
/// The XML column of [`TABLE`].
pub const COLUMN: &str = "doc";

/// XPath of a point query for price text `price`.
pub fn point_path(price: &str) -> String {
    format!("/Catalog/Categories/Product[RegPrice = {price}]/ProductName")
}

/// XPath of a full scan for product `i`.
pub fn scan_path(i: usize) -> String {
    format!(
        "/Catalog/Categories/Product[ProductName = '{}']/RegPrice",
        product_name(i)
    )
}

/// XPath of a filter query at threshold level `level`.
pub fn filter_path(level: usize) -> String {
    format!(
        "/Catalog/Categories/Product[Discount > {:.2}]/ProductName",
        FILTER_THRESHOLDS[level]
    )
}

/// The generated `<ProductName>` of product `i`.
pub fn product_name(i: usize) -> String {
    format!("Product-{i:06}")
}

/// The relational `sku` column of product `i`.
pub fn sku(i: usize) -> String {
    format!("SKU-{i:06}")
}

/// The generated `<RegPrice>` text of product `i`.
pub fn price_text(spec: &CatalogSpec, i: usize) -> String {
    format!("{:.2}", spec.price(i))
}

/// Product index from a generated `<ProductName>`.
pub fn product_of_name(name: &str) -> Option<usize> {
    name.strip_prefix("Product-")?.parse().ok()
}

/// The skewed key space: about 90% of keys come from a hot 10% of the
/// stable documents, chosen by a seeded shuffle.
#[derive(Debug, Clone)]
pub struct Keys {
    hot: Vec<usize>,
    cold: Vec<usize>,
}

impl Keys {
    /// Split `0..products` into hot and cold keys for `seed`.
    pub fn new(products: usize, seed: u64) -> Keys {
        let mut all: Vec<usize> = (0..products).collect();
        Rng::new(seed, 0x4b45_5953).shuffle(&mut all);
        let cold = all.split_off((products / 10).max(1));
        Keys { hot: all, cold }
    }

    /// Draw a key: 9 in 10 from the hot set.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        if self.cold.is_empty() || rng.chance(9, 10) {
            self.hot[rng.below(self.hot.len())]
        } else {
            self.cold[rng.below(self.cold.len())]
        }
    }
}

/// What one client session does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// 6 point queries and 4 fetches per round, skewed keys.
    Lookup,
    /// Three full scans (uniform keys) and one filter at each threshold
    /// per round.
    Scan,
    /// One insert and one delete per round.
    Writer,
    /// 10 point queries per round, skewed keys over the stable documents.
    Reader,
}

/// A seeded per-session request script, produced in whole rounds so every
/// run issues the same mix whatever its length.
#[derive(Debug, Clone)]
pub struct Script {
    role: Role,
    rng: Rng,
    keys: Keys,
    products: usize,
}

impl Script {
    /// The two sessions' scripts of workload `w`.
    pub fn sessions(w: Workload, scale: &Scale, seed: u64) -> Vec<Script> {
        let keys = Keys::new(scale.products, seed);
        let roles = match w {
            Workload::Lookup => [Role::Lookup, Role::Lookup],
            Workload::Scan => [Role::Scan, Role::Scan],
            Workload::Ingest => [Role::Writer, Role::Reader],
        };
        roles
            .iter()
            .enumerate()
            .map(|(i, &role)| Script {
                role,
                rng: Rng::new(seed, 1 + i as u64),
                keys: keys.clone(),
                products: scale.products,
            })
            .collect()
    }

    /// A lone writer script: one insert and one delete per round.
    pub fn writer() -> Script {
        Script {
            role: Role::Writer,
            rng: Rng::new(0, 0),
            keys: Keys {
                hot: vec![0],
                cold: Vec::new(),
            },
            products: 1,
        }
    }

    /// The session's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The next round of requests.
    pub fn round(&mut self) -> Vec<Op> {
        let rng = &mut self.rng;
        let keys = &self.keys;
        let mut ops = match self.role {
            Role::Lookup => (0..10)
                .map(|j| {
                    let k = keys.draw(rng);
                    if j < 6 {
                        Op::Point(k)
                    } else {
                        Op::Fetch(k)
                    }
                })
                .collect(),
            Role::Scan => (0..FILTER_THRESHOLDS.len())
                .flat_map(|level| [Op::Scan(rng.below(self.products)), Op::Filter(level)])
                .collect(),
            Role::Writer => vec![Op::Insert, Op::Delete],
            Role::Reader => (0..10).map(|_| Op::Point(keys.draw(rng))).collect(),
        };
        if self.role != Role::Writer {
            rng.shuffle(&mut ops);
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_repeat_for_a_seed_and_differ_across_seeds() {
        let scale = Scale::tiny(Workload::Lookup);
        let run = |seed| {
            let mut s = Script::sessions(Workload::Lookup, &scale, seed);
            (0..5).flat_map(|_| s[0].round()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn keys_are_skewed_toward_the_hot_set() {
        let keys = Keys::new(1000, 3);
        let hot: std::collections::HashSet<usize> = keys.hot.iter().copied().collect();
        let mut rng = Rng::new(3, 9);
        let n = 10_000;
        let in_hot = (0..n)
            .filter(|_| hot.contains(&keys.draw(&mut rng)))
            .count();
        assert!((8_800..9_200).contains(&in_hot), "{in_hot}");
    }
}
