//! Deterministic JSON and HTML rendering for explorer pages.
//!
//! Every page is a pure function of archive data: no clocks, no random
//! ids, no hash-map iteration — rendering the same archive twice yields
//! byte-identical files, which is what lets CI `cmp` two runs and what
//! makes pages cacheable forever (an archive's checksum names its
//! content).
//!
//! JSON pages all carry `"schema": "fork-explorer/v1"` plus a `"page"`
//! discriminator; HTML pages are static documents with stable element ids
//! (`eth-tip`, `etc-tip`, …) so scripts and tests can grep them.

use std::path::{Path, PathBuf};

use fork_analytics::BlockRecord;
use fork_archive::ArchiveRecord;
use fork_query::{FoundRecord, HeaderChain, Lookup, LookupOutput, TipHistoryOutput};
use fork_replay::Side;
use fork_serve::ServeMeta;
use fork_telemetry::json::Value;

use crate::source::{ExplorerError, ExplorerSource};

/// Schema tag stamped into every JSON page.
pub const SCHEMA: &str = "fork-explorer/v1";

/// How many trailing blocks the site's per-side header pages cover.
const SITE_HEADER_TAIL: u64 = 16;

/// Stable lowercase side label used in JSON and HTML.
pub fn side_label(side: Side) -> &'static str {
    match side {
        Side::Eth => "eth",
        Side::Etc => "etc",
    }
}

/// A `fork-explorer/v1` page: the schema tag, the page name, then `fields`.
fn page(name: &str, fields: impl IntoIterator<Item = (&'static str, Value)>) -> String {
    let head = [("schema", Value::from(SCHEMA)), ("page", name.into())];
    Value::obj(head.into_iter().chain(fields)).to_json_pretty()
}

fn block_value(b: &BlockRecord) -> Value {
    Value::obj([
        ("number", Value::from(b.number)),
        ("hash", b.hash.to_string().into()),
        ("timestamp", b.timestamp.into()),
        ("difficulty", b.difficulty.to_string().into()),
        ("beneficiary", b.beneficiary.to_string().into()),
        ("gas_used", b.gas_used.into()),
        ("tx_count", b.tx_count.into()),
        ("ommer_count", b.ommer_count.into()),
    ])
}

fn html_doc(title: &str, body: &str) -> String {
    format!(
        "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>{title}</title>\n</head>\n<body>\n{body}</body>\n</html>\n"
    )
}

// --- record pages ----------------------------------------------------------

/// JSON for a block page: the result of a block hash/number lookup.
pub fn block_json(found: &Option<FoundRecord>) -> String {
    match found {
        Some(FoundRecord {
            seq,
            side,
            record: ArchiveRecord::Block(b),
        }) => page(
            "block",
            [
                ("found", Value::from(true)),
                ("side", side_label(*side).into()),
                ("seq", (*seq).into()),
                ("block", block_value(b)),
            ],
        ),
        _ => page("block", [("found", false.into())]),
    }
}

/// HTML for a block page.
pub fn block_html(found: &Option<FoundRecord>) -> String {
    let body = match found {
        Some(FoundRecord {
            seq,
            side,
            record: ArchiveRecord::Block(b),
        }) => format!(
            "<h1>Block {} on {}</h1>\n<table>\n\
             <tr><th>hash</th><td><code>{}</code></td></tr>\n\
             <tr><th>seq</th><td>{seq}</td></tr>\n\
             <tr><th>timestamp</th><td>{}</td></tr>\n\
             <tr><th>difficulty</th><td>{}</td></tr>\n\
             <tr><th>beneficiary</th><td><code>{}</code></td></tr>\n\
             <tr><th>gas used</th><td>{}</td></tr>\n\
             <tr><th>txs</th><td>{}</td></tr>\n\
             <tr><th>ommers</th><td>{}</td></tr>\n</table>\n",
            b.number,
            side_label(*side),
            b.hash,
            b.timestamp,
            b.difficulty,
            b.beneficiary,
            b.gas_used,
            b.tx_count,
            b.ommer_count
        ),
        _ => "<h1>Block not found</h1>\n".into(),
    };
    html_doc("block", &body)
}

/// JSON for a tx page: the result of a tx hash lookup.
pub fn tx_json(found: &Option<FoundRecord>) -> String {
    match found {
        Some(FoundRecord {
            seq,
            side,
            record: ArchiveRecord::Tx(t),
        }) => {
            let tx = Value::obj([
                ("hash", Value::from(t.hash.to_string())),
                ("timestamp", t.timestamp.into()),
                ("is_contract", t.is_contract.into()),
                ("has_chain_id", t.has_chain_id.into()),
                ("value", t.value.to_string().into()),
            ]);
            page(
                "tx",
                [
                    ("found", Value::from(true)),
                    ("side", side_label(*side).into()),
                    ("seq", (*seq).into()),
                    ("tx", tx),
                ],
            )
        }
        _ => page("tx", [("found", false.into())]),
    }
}

/// HTML for a tx page.
pub fn tx_html(found: &Option<FoundRecord>) -> String {
    let body = match found {
        Some(FoundRecord {
            seq,
            side,
            record: ArchiveRecord::Tx(t),
        }) => format!(
            "<h1>Transaction on {}</h1>\n<table>\n\
             <tr><th>hash</th><td><code>{}</code></td></tr>\n\
             <tr><th>seq</th><td>{seq}</td></tr>\n\
             <tr><th>timestamp</th><td>{}</td></tr>\n\
             <tr><th>contract creation</th><td>{}</td></tr>\n\
             <tr><th>EIP-155 chain id</th><td>{}</td></tr>\n\
             <tr><th>value</th><td>{}</td></tr>\n</table>\n",
            side_label(*side),
            t.hash,
            t.timestamp,
            t.is_contract,
            t.has_chain_id,
            t.value
        ),
        _ => "<h1>Transaction not found</h1>\n".into(),
    };
    html_doc("tx", &body)
}

// --- timeline page ---------------------------------------------------------

/// JSON for the per-side tip + reorg timeline page.
pub fn timeline_json(tips: &TipHistoryOutput) -> String {
    let sides = [&tips.eth, &tips.etc].map(|t| {
        let side = Value::obj([
            ("blocks", Value::from(t.blocks)),
            ("reorgs", t.reorgs.into()),
            ("tip_seq", t.tip_seq.map_or(Value::Null, Value::from)),
            ("tip", t.tip.as_ref().map_or(Value::Null, block_value)),
        ]);
        (side_label(t.side), side)
    });
    let reorgs = tips.reorgs.iter().map(|ev| {
        Value::obj([
            ("side", Value::from(side_label(ev.side))),
            ("seq", ev.seq.into()),
            ("number", ev.number.into()),
            ("depth", ev.depth.into()),
            ("timestamp", ev.timestamp.into()),
        ])
    });
    let reorgs = ("reorgs", Value::Arr(reorgs.collect()));
    page("timeline", sides.into_iter().chain([reorgs]))
}

/// HTML for the timeline page.
pub fn timeline_html(tips: &TipHistoryOutput) -> String {
    let mut body = String::from("<h1>Tip and reorg timeline</h1>\n<table>\n");
    body.push_str("<tr><th>side</th><th>blocks</th><th>reorgs</th><th>tip</th></tr>\n");
    for t in [&tips.eth, &tips.etc] {
        let label = side_label(t.side);
        let tip = match &t.tip {
            Some(b) => format!("#{} <code>{}</code>", b.number, b.hash),
            None => "(empty)".into(),
        };
        body.push_str(&format!(
            "<tr><td>{label}</td><td>{}</td><td>{}</td><td id=\"{label}-tip\">{tip}</td></tr>\n",
            t.blocks, t.reorgs
        ));
    }
    body.push_str("</table>\n<h2>Reorg events</h2>\n");
    if tips.reorgs.is_empty() {
        body.push_str("<p>No reorgs recorded.</p>\n");
    } else {
        body.push_str(
            "<table>\n<tr><th>seq</th><th>side</th><th>new tip</th><th>depth</th><th>timestamp</th></tr>\n",
        );
        for ev in &tips.reorgs {
            body.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                ev.seq,
                side_label(ev.side),
                ev.number,
                ev.depth,
                ev.timestamp
            ));
        }
        body.push_str("</table>\n");
    }
    html_doc("timeline", &body)
}

// --- overview page ---------------------------------------------------------

/// JSON for the fork-overview page: archive shape plus both sides' tips.
pub fn overview_json(meta: &ServeMeta, tips: &TipHistoryOutput) -> String {
    let range = |r: Option<(u64, u64)>| match r {
        Some((lo, hi)) => Value::Arr(vec![lo.into(), hi.into()]),
        None => Value::Null,
    };
    let archive = Value::obj([
        ("blocks", Value::from(meta.blocks)),
        ("txs", meta.txs.into()),
        ("format_version", meta.format_version.into()),
        ("checksum", format!("{:08x}", meta.checksum).into()),
        ("block_range", range(meta.block_range)),
        ("time_range", range(meta.time_range)),
    ]);
    let sides = [&tips.eth, &tips.etc].map(|t| {
        let (tip_number, tip_hash) = match &t.tip {
            Some(b) => (b.number.into(), b.hash.to_string().into()),
            None => (Value::Null, Value::Null),
        };
        let side = Value::obj([
            ("blocks", Value::from(t.blocks)),
            ("reorgs", t.reorgs.into()),
            ("tip_number", tip_number),
            ("tip_hash", tip_hash),
        ]);
        (side_label(t.side), side)
    });
    let fields = [("archive", archive)].into_iter().chain(sides);
    page(
        "overview",
        fields.chain([("reorg_count", tips.reorgs.len().into())]),
    )
}

/// HTML for the fork-overview page. Both sides' tips appear with stable
/// `eth-tip` / `etc-tip` element ids.
pub fn overview_html(meta: &ServeMeta, tips: &TipHistoryOutput) -> String {
    let mut body = String::from("<h1>Fork overview</h1>\n");
    body.push_str(&format!(
        "<p>{} blocks, {} txs (format v{}, checksum <code>{:08x}</code>)</p>\n",
        meta.blocks, meta.txs, meta.format_version, meta.checksum
    ));
    body.push_str("<table>\n<tr><th>side</th><th>blocks</th><th>reorgs</th><th>tip</th></tr>\n");
    for t in [&tips.eth, &tips.etc] {
        let label = side_label(t.side);
        let tip = match &t.tip {
            Some(b) => format!("#{} <code>{}</code>", b.number, b.hash),
            None => "(empty)".into(),
        };
        body.push_str(&format!(
            "<tr><td>{label}</td><td>{}</td><td>{}</td><td id=\"{label}-tip\">{tip}</td></tr>\n",
            t.blocks, t.reorgs
        ));
    }
    body.push_str(&format!(
        "</table>\n<p>{} reorg events — see the <a href=\"timeline.html\">timeline</a>.</p>\n",
        tips.reorgs.len()
    ));
    html_doc("fork overview", &body)
}

// --- headers page ----------------------------------------------------------

/// JSON for a verified header-chain page. `blocks` must be the output of
/// [`HeaderChain::verify`] on `chain` — rendering is refused upstream when
/// verification fails.
pub fn headers_json(chain: &HeaderChain, blocks: &[BlockRecord]) -> String {
    let headers = chain.headers.iter().zip(blocks).map(|(h, b)| {
        Value::obj([
            ("seq", Value::from(h.seq)),
            ("number", b.number.into()),
            ("hash", b.hash.to_string().into()),
            ("timestamp", b.timestamp.into()),
            ("difficulty", b.difficulty.to_string().into()),
        ])
    });
    page(
        "headers",
        [
            ("side", Value::from(side_label(chain.side))),
            ("first", chain.first.into()),
            ("last", chain.last.into()),
            ("count", blocks.len().into()),
            ("verified", true.into()),
            ("headers", Value::Arr(headers.collect())),
        ],
    )
}

/// HTML for a verified header-chain page.
pub fn headers_html(chain: &HeaderChain, blocks: &[BlockRecord]) -> String {
    let mut body = format!(
        "<h1>Headers {}..={} on {}</h1>\n<p>{} headers, verified by frame checksums.</p>\n\
         <table>\n<tr><th>number</th><th>hash</th><th>timestamp</th><th>difficulty</th></tr>\n",
        chain.first,
        chain.last,
        side_label(chain.side),
        blocks.len()
    );
    for b in blocks {
        body.push_str(&format!(
            "<tr><td>{}</td><td><code>{}</code></td><td>{}</td><td>{}</td></tr>\n",
            b.number, b.hash, b.timestamp, b.difficulty
        ));
    }
    body.push_str("</table>\n");
    html_doc("headers", &body)
}

// --- static site -----------------------------------------------------------

fn write_page(
    out: &mut Vec<PathBuf>,
    dir: &Path,
    name: &str,
    content: &str,
) -> std::io::Result<()> {
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    out.push(path);
    Ok(())
}

/// Renders the static explorer site into `dir` (created if missing):
/// `overview`, `timeline`, each side's tip block page (looked up **by
/// hash** through the sidecar index), and each side's trailing header
/// chain (client-verified before rendering). Returns the files written.
///
/// Output is deterministic: rendering the same archive twice produces
/// byte-identical files.
pub fn render_site(source: &mut ExplorerSource, dir: &Path) -> Result<Vec<PathBuf>, ExplorerError> {
    std::fs::create_dir_all(dir)?;
    let meta = source.meta()?;
    let tips = match source.lookup(&Lookup::TipHistory)? {
        LookupOutput::Tips(t) => t,
        other => {
            return Err(ExplorerError::Invalid(format!(
                "tip history lookup answered {other:?}"
            )))
        }
    };

    let mut written = Vec::new();
    write_page(
        &mut written,
        dir,
        "overview.json",
        &overview_json(&meta, &tips),
    )?;
    write_page(
        &mut written,
        dir,
        "overview.html",
        &overview_html(&meta, &tips),
    )?;
    write_page(&mut written, dir, "timeline.json", &timeline_json(&tips))?;
    write_page(&mut written, dir, "timeline.html", &timeline_html(&tips))?;

    for t in [&tips.eth, &tips.etc] {
        let label = side_label(t.side);
        let Some(tip) = &t.tip else { continue };

        // Tip block page, fetched by hash so the sidecar fast path is the
        // thing rendering it.
        let found = match source.lookup(&Lookup::BlockByHash { hash: tip.hash })? {
            LookupOutput::Found(f) => f,
            other => {
                return Err(ExplorerError::Invalid(format!(
                    "block lookup answered {other:?}"
                )))
            }
        };
        write_page(
            &mut written,
            dir,
            &format!("block-{label}.json"),
            &block_json(&found),
        )?;
        write_page(
            &mut written,
            dir,
            &format!("block-{label}.html"),
            &block_html(&found),
        )?;

        // Trailing header chain, verified client-side before rendering.
        let first = tip.number.saturating_sub(SITE_HEADER_TAIL - 1);
        let lookup = Lookup::Headers {
            side: t.side,
            first,
            last: tip.number,
        };
        let chain = match source.lookup(&lookup)? {
            LookupOutput::Headers(c) => c,
            other => {
                return Err(ExplorerError::Invalid(format!(
                    "headers lookup answered {other:?}"
                )))
            }
        };
        let blocks = chain
            .verify()
            .map_err(|e| ExplorerError::Invalid(format!("header chain failed to verify: {e}")))?;
        write_page(
            &mut written,
            dir,
            &format!("headers-{label}.json"),
            &headers_json(&chain, &blocks),
        )?;
        write_page(
            &mut written,
            dir,
            &format!("headers-{label}.html"),
            &headers_html(&chain, &blocks),
        )?;
    }
    Ok(written)
}
