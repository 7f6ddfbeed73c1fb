//! Set-up and tear-down: create the database, load the generated
//! collection, start an `rx-server` on loopback TCP and connect one
//! protocol-v2 connection.

use crate::oracle::Catalog;
use crate::workload::{sku, Scale, COLUMN, TABLE};
use rx_engine::{BaseTable, ColValue, ColumnKind, Database, DbConfig};
use rx_server::{connect_tcp_multiplexed, ConnectOptions, Connection, Server, ServerConfig};
use rx_xml::value::KeyType;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads and query-executor lanes: the load is two client
/// sessions, so two of each keeps the host's two cores busy without
/// oversubscribing them.
pub const WORKERS: usize = 2;

/// Documents per transaction when loading the collection.
const LOAD_BATCH: usize = 500;

/// The churn documents of `ingest`, oldest first, with the generator state
/// for the next insert. Only the writer session touches it.
#[derive(Debug, Clone, Default)]
pub struct Churn {
    /// (DocID, product index) of every live churn document.
    pub live: VecDeque<(u64, usize)>,
    /// Product index of the next insert.
    pub next_product: usize,
    /// Every (DocID, product index) ever inserted, set-up included.
    pub inserted: Vec<(u64, usize)>,
}

/// A loaded database behind a running server.
pub struct Fixture {
    /// The engine.
    pub db: Arc<Database>,
    /// The server fronting it.
    pub server: Arc<Server>,
    /// The client connection every session of the run shares.
    pub conn: Connection,
    /// The queried table.
    pub table: Arc<BaseTable>,
    /// Oracle view of the stable documents.
    pub catalog: Catalog,
    /// `ingest`'s churn pool (empty elsewhere).
    pub churn: Churn,
    /// Wall time of the set-up.
    pub setup: Duration,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Fixture {
    /// Build the fixture: an in-memory database (its WAL in memory too,
    /// with the program's group commit) holding `scale`'s collection.
    pub fn build(scale: &Scale, seed: u64) -> Result<Fixture, String> {
        let spec = scale.spec(seed);
        let started = Instant::now();
        let db = Database::create_in_memory_with(DbConfig {
            query_workers: WORKERS,
            doc_cache_bytes: scale.doc_cache_bytes,
            ..DbConfig::default()
        })
        .map_err(err)?;
        let table = db
            .create_table(
                TABLE,
                &[("sku", ColumnKind::Str), (COLUMN, ColumnKind::Xml)],
            )
            .map_err(err)?;
        db.create_value_index(
            TABLE,
            "price_idx",
            COLUMN,
            "/Catalog/Categories/Product/RegPrice",
            KeyType::Double,
        )
        .map_err(err)?;
        db.create_value_index(TABLE, "disc_idx", COLUMN, "//Discount", KeyType::Double)
            .map_err(err)?;
        let total = scale.products + scale.churn;
        let mut docids = Vec::with_capacity(total);
        for start in (0..total).step_by(LOAD_BATCH) {
            let txn = db.begin().map_err(err)?;
            for i in start..(start + LOAD_BATCH).min(total) {
                let values = [
                    ColValue::Str(sku(i)),
                    ColValue::Xml(rx_gen::product_doc(&spec, i)),
                ];
                docids.push(db.insert_row_txn(&txn, &table, &values).map_err(err)?);
            }
            txn.commit().map_err(err)?;
        }
        let server = Server::start(
            Arc::clone(&db),
            ServerConfig {
                workers: WORKERS,
                ..ServerConfig::default()
            },
        );
        let addr = server.listen("127.0.0.1:0").map_err(err)?;
        let conn = connect_tcp_multiplexed(addr, ConnectOptions::default()).map_err(err)?;
        conn.session().ping().map_err(err)?;
        let setup = started.elapsed();

        let churn_docs: Vec<(u64, usize)> = docids[scale.products..]
            .iter()
            .copied()
            .zip(scale.products..)
            .collect();
        docids.truncate(scale.products);
        Ok(Fixture {
            db,
            server,
            conn,
            table,
            catalog: Catalog::new(spec, docids),
            churn: Churn {
                live: churn_docs.iter().copied().collect(),
                next_product: total,
                inserted: churn_docs,
            },
            setup,
        })
    }

    /// Close the connection, stop the server and drop the database.
    pub fn close(self) {
        let Fixture { server, conn, .. } = self;
        drop(conn);
        server.shutdown();
    }
}

/// Bytes of stored data and indexes: live heap pages of the base table and
/// the XML table, plus the pages of the DocID, NodeID and value indexes.
pub fn stored_bytes(table: &BaseTable) -> Result<u64, String> {
    let mut pages = table.heap().stats().map_err(err)?.pages;
    pages += table.docid_index().page_count().map_err(err)?;
    for col in table.xml_columns() {
        pages += xml_table_pages(col)?;
        for idx in col.indexes() {
            pages += idx.page_count().map_err(err)?;
        }
    }
    Ok(pages * rx_storage::PAGE_SIZE as u64)
}

/// Pages of an XML column's internal XML table and its NodeID index.
pub fn xml_table_pages(col: &rx_engine::XmlColumn) -> Result<u64, String> {
    let xml = col.xml_table();
    Ok(xml.heap().stats().map_err(err)?.pages + xml.nodeid_index().page_count().map_err(err)?)
}
