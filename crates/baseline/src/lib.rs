//! # vcsql-baseline — reference relational executors
//!
//! The comparison systems of the paper's evaluation, rebuilt in miniature:
//!
//! * [`row`] — classical row-store operators: selection, projection, hash
//!   join, sort-merge join, (index) nested-loop join, semi/anti join, hash
//!   aggregation, and a sequential Yannakakis semi-join reducer;
//! * [`exec`] — a binary-join-at-a-time query executor over an
//!   [`Analyzed`](vcsql_query::Analyzed) query (greedy smallest-first join
//!   order), playing the role of PostgreSQL / RDBMS-X / RDBMS-Y row stores.
//!   It doubles as the **correctness oracle** for the vertex-centric
//!   executor;
//! * [`columnar`] — a dictionary-encoded in-memory column store with
//!   vectorized scan/filter/aggregate fast paths, playing the role of
//!   RDBMS-X IM (the in-memory column store the paper loses to on scans and
//!   scalar aggregation);
//! * [`index`] — hash indexes on PK/FK columns, standing in for the B-tree
//!   indexes the TPC protocol prescribes (used for index-nested-loop joins
//!   and for the loading-cost experiments).
//! * [`spark`] — a Spark-like shuffle-join network-cost model, the
//!   distributed comparison engine of the paper's Section 8.6: it charges
//!   the exchanges of a shuffle/broadcast join plan as a
//!   [`NetStats`](vcsql_bsp::NetStats).

pub mod columnar;
pub mod exec;
pub mod index;
pub mod row;
pub mod spark;

pub use columnar::ColumnarDatabase;
pub use exec::{execute, ExecConfig, JoinAlgo};
pub use index::HashIndex;
pub use spark::{unsafe_row_bytes, SparkModel};
