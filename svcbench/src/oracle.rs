//! Oracles: the answer each request must get, computed from the generator's
//! closed forms (`CatalogSpec::price`/`discount`) and the generated text,
//! never from the engine.

use crate::workload::{price_text, product_name, product_of_name, sku, FILTER_THRESHOLDS};
use rx_engine::Row;
use rx_gen::CatalogSpec;
use rx_server::Hit;
use std::collections::HashMap;

/// A (DocID, value) answer, the comparable form of a wire hit.
pub type Answer = (u64, String);

/// The oracle's view of the documents loaded at set-up and never modified.
#[derive(Debug, Clone)]
pub struct Catalog {
    spec: CatalogSpec,
    docids: Vec<u64>,
    by_price: HashMap<String, Vec<usize>>,
    above: Vec<Vec<Answer>>,
}

impl Catalog {
    /// `docids[i]` is the DocID the load assigned to product `i`.
    pub fn new(spec: CatalogSpec, docids: Vec<u64>) -> Catalog {
        let mut by_price: HashMap<String, Vec<usize>> = HashMap::new();
        for i in 0..docids.len() {
            by_price.entry(price_text(&spec, i)).or_default().push(i);
        }
        let above = FILTER_THRESHOLDS
            .iter()
            .map(|&t| {
                let mut v: Vec<Answer> = (0..docids.len())
                    .filter(|&i| spec.discount(i) > t)
                    .map(|i| (docids[i], product_name(i)))
                    .collect();
                v.sort();
                v
            })
            .collect();
        Catalog {
            spec,
            docids,
            by_price,
            above,
        }
    }

    /// The generator parameters.
    pub fn spec(&self) -> &CatalogSpec {
        &self.spec
    }

    /// Number of stable products.
    pub fn len(&self) -> usize {
        self.docids.len()
    }

    /// True when no product was loaded.
    pub fn is_empty(&self) -> bool {
        self.docids.is_empty()
    }

    /// DocID of stable product `i`.
    pub fn docid(&self, i: usize) -> u64 {
        self.docids[i]
    }

    /// Every stable DocID.
    pub fn docids(&self) -> &[u64] {
        &self.docids
    }

    /// Stable products whose generated price text is `price`, as answers
    /// of a point query (value: the product name), sorted.
    pub fn point_answers(&self, price: &str) -> Vec<Answer> {
        let mut v: Vec<Answer> = self
            .by_price
            .get(price)
            .map(|is| {
                is.iter()
                    .map(|&i| (self.docids[i], product_name(i)))
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    }

    /// Answers of a filter query at threshold level `level`, sorted.
    pub fn filter_answers(&self, level: usize) -> &[Answer] {
        &self.above[level]
    }
}

fn sorted(got: &[Hit]) -> Vec<Answer> {
    let mut v: Vec<Answer> = got.iter().map(|h| (h.doc, h.value.clone())).collect();
    v.sort();
    v
}

/// Compare a reply with the exact expected answer set.
pub fn check_exact(what: &str, expected: &[Answer], got: &[Hit]) -> Result<(), String> {
    let got = sorted(got);
    if got == expected {
        return Ok(());
    }
    let missing = expected.iter().find(|a| got.binary_search(a).is_err());
    let extra = got.iter().find(|a| expected.binary_search(a).is_err());
    Err(format!(
        "{what}: {} hits, expected {}; first missing {missing:?}, first unexpected {extra:?}",
        got.len(),
        expected.len()
    ))
}

/// A point query for product `key`'s price returns exactly the products
/// with that price.
pub fn check_point(cat: &Catalog, key: usize, got: &[Hit]) -> Result<(), String> {
    let price = price_text(&cat.spec, key);
    check_exact(
        &format!("point price={price}"),
        &cat.point_answers(&price),
        got,
    )
}

/// A full scan for product `key`'s name returns exactly one hit: that
/// document with its generated price.
pub fn check_scan(cat: &Catalog, key: usize, got: &[Hit]) -> Result<(), String> {
    let expected = [(cat.docid(key), price_text(&cat.spec, key))];
    check_exact(&format!("scan {}", product_name(key)), &expected, got)
}

/// A filter returns exactly the products whose discount exceeds the
/// threshold.
pub fn check_filter(cat: &Catalog, level: usize, got: &[Hit]) -> Result<(), String> {
    check_exact(
        &format!("filter Discount > {}", FILTER_THRESHOLDS[level]),
        cat.filter_answers(level),
        got,
    )
}

/// A fetched row is product `key`'s: its DocID, its sku, and the empty
/// marker the wire carries for an XML column.
pub fn check_fetch(cat: &Catalog, key: usize, got: Option<&Row>) -> Result<(), String> {
    let doc = cat.docid(key);
    match got {
        Some(row) if row.doc == doc && row.values == [sku(key), String::new()] => Ok(()),
        other => Err(format!(
            "fetch doc {doc}: expected {} with an empty XML marker, got {other:?}",
            sku(key)
        )),
    }
}

/// A point query on `ingest`, where churn documents come and go beside
/// the stable ones. The stable hits must be exactly the stable products
/// with that price; every other hit must be a churn product (index at or
/// above `cat.len()`) whose generated price is the literal. Returns the
/// churn hits as (DocID, product) so the caller can check them against
/// the writer's log.
pub fn check_churn_point(
    cat: &Catalog,
    key: usize,
    got: &[Hit],
) -> Result<Vec<(u64, usize)>, String> {
    let price = price_text(&cat.spec, key);
    let mut stable = Vec::new();
    let mut churn = Vec::new();
    for h in got {
        match product_of_name(&h.value) {
            Some(i) if i < cat.len() => stable.push(h.clone()),
            Some(i) if price_text(&cat.spec, i) == price => churn.push((h.doc, i)),
            _ => {
                return Err(format!(
                    "point price={price}: hit {h:?} is neither a stable product nor a churn product of that price"
                ))
            }
        }
    }
    check_exact(
        &format!("point price={price} (stable part)"),
        &cat.point_answers(&price),
        &stable,
    )?;
    Ok(churn)
}

/// True when two XML texts are the same tree: same element names,
/// attributes (in any order) and text, after entity decoding.
pub fn same_tree(a: &str, b: &str) -> Result<bool, String> {
    Ok(canonical(a)? == canonical(b)?)
}

#[derive(Debug, PartialEq, Eq)]
enum Tok {
    Open(String, Vec<(String, String)>),
    Close(String),
    Text(String),
}

/// Tokenize XML into a canonical event list (a minimal reader for the
/// generator's documents: elements, attributes, text, character and
/// predefined entity references; prologs and comments are skipped).
fn canonical(s: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let mut stack: Vec<String> = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        if let Some(tail) = rest.strip_prefix("<?") {
            rest = &tail[tail.find("?>").ok_or("unterminated prolog")? + 2..];
        } else if let Some(tail) = rest.strip_prefix("<!--") {
            rest = &tail[tail.find("-->").ok_or("unterminated comment")? + 3..];
        } else if let Some(tail) = rest.strip_prefix("</") {
            let end = tail.find('>').ok_or("unterminated end tag")?;
            let name = tail[..end].trim().to_string();
            if stack.pop().as_deref() != Some(name.as_str()) {
                return Err(format!("mismatched end tag {name}"));
            }
            out.push(Tok::Close(name));
            rest = &tail[end + 1..];
        } else if let Some(tail) = rest.strip_prefix('<') {
            let end = tail.find('>').ok_or("unterminated start tag")?;
            let (body, empty) = match tail[..end].strip_suffix('/') {
                Some(b) => (b, true),
                None => (&tail[..end], false),
            };
            let name_end = body.find(char::is_whitespace).unwrap_or(body.len());
            let name = body[..name_end].to_string();
            let mut attrs = Vec::new();
            let mut a = body[name_end..].trim_start();
            while !a.is_empty() {
                let eq = a.find('=').ok_or("attribute without value")?;
                let key = a[..eq].trim().to_string();
                let v = a[eq + 1..].trim_start();
                let quote = v.chars().next().ok_or("attribute without value")?;
                let close = v[1..].find(quote).ok_or("unterminated attribute")?;
                attrs.push((key, decode(&v[1..close + 1])?));
                a = v[close + 2..].trim_start();
            }
            attrs.sort();
            out.push(Tok::Open(name.clone(), attrs));
            if empty {
                out.push(Tok::Close(name));
            } else {
                stack.push(name);
            }
            rest = &tail[end + 1..];
        } else {
            let end = rest.find('<').unwrap_or(rest.len());
            let text = decode(&rest[..end])?;
            match out.last_mut() {
                Some(Tok::Text(t)) => t.push_str(&text),
                _ => out.push(Tok::Text(text)),
            }
            rest = &rest[end..];
        }
    }
    if !stack.is_empty() {
        return Err(format!("unclosed elements {stack:?}"));
    }
    Ok(out)
}

fn decode(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let semi = rest[amp..].find(';').ok_or("unterminated entity")? + amp;
        let ent = &rest[amp + 1..semi];
        let c = match ent {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ => {
                let code = if let Some(h) = ent.strip_prefix("#x") {
                    u32::from_str_radix(h, 16)
                } else if let Some(d) = ent.strip_prefix('#') {
                    d.parse()
                } else {
                    return Err(format!("unknown entity &{ent};"));
                };
                code.ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| format!("bad character reference &{ent};"))?
            }
        };
        out.push(c);
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let spec = CatalogSpec {
            products: 200,
            seed: 11,
            ..CatalogSpec::default()
        };
        Catalog::new(spec, (1..=200).collect())
    }

    fn hits(answers: &[Answer]) -> Vec<Hit> {
        answers
            .iter()
            .map(|(doc, value)| Hit {
                doc: *doc,
                value: value.clone(),
            })
            .collect()
    }

    #[test]
    fn point_oracle_accepts_the_truth_and_rejects_a_dropped_hit() {
        let cat = catalog();
        // Pick a key whose price several products share.
        let key = (0..cat.len())
            .find(|&i| cat.point_answers(&price_text(cat.spec(), i)).len() > 1)
            .expect("a shared price");
        let truth = cat.point_answers(&price_text(cat.spec(), key));
        assert!(check_point(&cat, key, &hits(&truth)).is_ok());
        let mut dropped = hits(&truth);
        dropped.pop();
        assert!(check_point(&cat, key, &dropped).is_err());
        let mut extra = hits(&truth);
        extra.push(extra[0].clone());
        assert!(check_point(&cat, key, &extra).is_err());
    }

    #[test]
    fn scan_oracle_rejects_a_wrong_price() {
        let cat = catalog();
        let right = [(cat.docid(5), price_text(cat.spec(), 5))];
        assert!(check_scan(&cat, 5, &hits(&right)).is_ok());
        let wrong = [(cat.docid(5), "0.01".to_string())];
        assert!(check_scan(&cat, 5, &hits(&wrong)).is_err());
        assert!(check_scan(&cat, 5, &[]).is_err());
    }

    #[test]
    fn filter_oracle_matches_the_discount_formula() {
        let cat = catalog();
        for level in 0..FILTER_THRESHOLDS.len() {
            let truth = cat.filter_answers(level).to_vec();
            // 8 discount levels: 3/8, 2/8, 1/8 of 200 products.
            assert_eq!(truth.len(), 25 * (3 - level));
            assert!(check_filter(&cat, level, &hits(&truth)).is_ok());
            let mut dropped = hits(&truth);
            dropped.remove(dropped.len() / 2);
            assert!(check_filter(&cat, level, &dropped).is_err());
        }
    }

    #[test]
    fn fetch_oracle_rejects_a_stale_row() {
        let cat = catalog();
        let row = |doc, i| Row {
            doc,
            values: vec![sku(i), String::new()],
        };
        assert!(check_fetch(&cat, 7, Some(&row(cat.docid(7), 7))).is_ok());
        assert!(check_fetch(&cat, 7, Some(&row(cat.docid(7), 8))).is_err());
        assert!(check_fetch(&cat, 7, Some(&row(cat.docid(8), 7))).is_err());
        assert!(check_fetch(&cat, 7, None).is_err());
    }

    #[test]
    fn churn_point_oracle_separates_stable_and_churn_hits() {
        let cat = catalog();
        let key = 3;
        let price = price_text(cat.spec(), key);
        let mut truth = hits(&cat.point_answers(&price));
        // A churn product with the same price is allowed and reported.
        let j = (cat.len()..cat.len() * 10)
            .find(|&j| price_text(cat.spec(), j) == price)
            .expect("a churn product with the same price");
        truth.push(Hit {
            doc: 9_999,
            value: product_name(j),
        });
        assert_eq!(check_churn_point(&cat, key, &truth), Ok(vec![(9_999, j)]));
        // A churn product of another price is not.
        let k = (cat.len()..cat.len() * 10)
            .find(|&k| price_text(cat.spec(), k) != price)
            .expect("a churn product with another price");
        let mut wrong = truth.clone();
        wrong.push(Hit {
            doc: 10_000,
            value: product_name(k),
        });
        assert!(check_churn_point(&cat, key, &wrong).is_err());
        // Dropping the stable document the key came from is caught.
        let dropped: Vec<Hit> = truth
            .iter()
            .filter(|h| h.doc != cat.docid(key))
            .cloned()
            .collect();
        assert!(check_churn_point(&cat, key, &dropped).is_err());
    }

    #[test]
    fn tree_oracle_ignores_form_and_catches_a_changed_value() {
        let spec = CatalogSpec::default();
        let doc = rx_gen::product_doc(&spec, 4);
        assert!(same_tree(&doc, &doc).unwrap());
        let reordered = "<a y='2' x=\"1\"><b/>t&amp;u</a>";
        assert!(same_tree(reordered, "<a x=\"1\" y=\"2\"><b></b>t&#38;u</a>").unwrap());
        let price = price_text(&spec, 4);
        let changed = doc.replace(&format!(">{price}<"), ">0.01<");
        assert_ne!(changed, doc);
        assert!(!same_tree(&doc, &changed).unwrap());
    }
}
