//! `dsearch` — the command-line tool (paper §3.1).
//!
//! ```text
//! dsearch --db <db.fasta> --query <queries.fasta> [--config <file>]
//!         [--workers N] [--output <hits.tsv>] [--evalues] [--verify]
//! ```
//!
//! Inputs match the paper exactly: "a FASTA database file, a FASTA
//! query sequences file, a scoring scheme, and a configuration file."
//! The search runs distributed on `--workers` loopback TCP donors; `--verify`
//! additionally runs the sequential reference and asserts equality.

use biodist_core::{run_tcp, SchedulerConfig, Server};
use biodist_dsearch::{
    build_problem, search_sequential, DsearchConfig, ScoreStatistics, SearchOutput,
};
use std::process::ExitCode;

struct Args {
    db: String,
    query: String,
    config: Option<String>,
    workers: usize,
    output: Option<String>,
    evalues: bool,
    verify: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        db: String::new(),
        query: String::new(),
        config: None,
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        output: None,
        evalues: false,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--db" => args.db = value("--db")?,
            "--query" => args.query = value("--query")?,
            "--config" => args.config = Some(value("--config")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a positive integer".to_string())?
            }
            "--output" => args.output = Some(value("--output")?),
            "--evalues" => args.evalues = true,
            "--verify" => args.verify = true,
            "--help" | "-h" => {
                println!(
                    "usage: dsearch --db <db.fasta> --query <queries.fasta> \
                     [--config <file>] [--workers N] [--output <hits.tsv>] \
                     [--evalues] [--verify]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.db.is_empty() || args.query.is_empty() {
        return Err("--db and --query are required (see --help)".into());
    }
    if args.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    let config = match &args.config {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read config `{path}`: {e}"))?;
            DsearchConfig::parse(&text)?
        }
        None => DsearchConfig::protein_default(),
    };
    let alphabet = config.scheme.alphabet();

    let db_text = std::fs::read_to_string(&args.db)
        .map_err(|e| format!("cannot read database `{}`: {e}", args.db))?;
    let database = biodist_bioseq::parse_fasta(&db_text, alphabet).map_err(|e| e.to_string())?;
    let q_text = std::fs::read_to_string(&args.query)
        .map_err(|e| format!("cannot read queries `{}`: {e}", args.query))?;
    let queries = biodist_bioseq::parse_fasta(&q_text, alphabet).map_err(|e| e.to_string())?;
    if database.is_empty() || queries.is_empty() {
        return Err("database and query files must contain sequences".into());
    }
    eprintln!(
        "dsearch: {} database sequences, {} queries, kernel {}, {} workers",
        database.len(),
        queries.len(),
        config.kernel.name(),
        args.workers
    );

    let mut server = Server::new(SchedulerConfig {
        // Wall-clock backend: ~20 ms units keep all workers fed.
        target_unit_secs: 0.02,
        prior_ops_per_sec: 2e8,
        min_unit_ops: 1.0,
        ..Default::default()
    });
    let pid = server.submit(build_problem(database.clone(), queries.clone(), &config));
    let (mut server, elapsed) = run_tcp(server, args.workers);
    let out = server
        .take_output(pid)
        .expect("search completed")
        .into_inner::<SearchOutput>();
    let stats = server.stats(pid);
    eprintln!(
        "done in {elapsed:.2} s ({} units, {} redundant)",
        stats.completed_units, stats.redundant_dispatches
    );

    if args.verify {
        eprintln!("verifying against the sequential reference...");
        let expected = search_sequential(&database, &queries, &config);
        if out.hits != expected {
            return Err("distributed hits differ from sequential reference".into());
        }
        eprintln!("verified: distributed == sequential");
    }

    // Optional Gumbel E-values, fitted per query against a background of
    // every database sequence's score (requires a full rescan with
    // top_hits = |db|, so it is opt-in).
    let stats_per_query = if args.evalues {
        let mut bg_config = config.clone();
        bg_config.top_hits = database.len();
        let all = search_sequential(&database, &queries, &bg_config);
        let fitted: std::collections::BTreeMap<String, ScoreStatistics> = all
            .iter()
            .filter(|(_, hits)| hits.len() >= 10)
            .map(|(q, hits)| {
                let scores: Vec<i32> = hits.iter().map(|h| h.score).collect();
                (q.clone(), ScoreStatistics::fit_trimmed(&scores, 0.02))
            })
            .collect();
        Some(fitted)
    } else {
        None
    };

    let mut report = String::from(if args.evalues {
        "query\trank\tsubject\tscore\tevalue\n"
    } else {
        "query\trank\tsubject\tscore\n"
    });
    for (query, hits) in &out.hits {
        for (rank, hit) in hits.iter().enumerate() {
            match stats_per_query.as_ref().and_then(|m| m.get(query)) {
                Some(st) => {
                    let e = st.e_value(hit.score, database.len());
                    report.push_str(&format!(
                        "{query}\t{}\t{}\t{}\t{e:.3e}\n",
                        rank + 1,
                        hit.db_id,
                        hit.score
                    ));
                }
                None => report.push_str(&format!(
                    "{query}\t{}\t{}\t{}\n",
                    rank + 1,
                    hit.db_id,
                    hit.score
                )),
            }
        }
    }
    match &args.output {
        Some(path) => {
            std::fs::write(path, &report).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{report}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dsearch: error: {msg}");
            ExitCode::FAILURE
        }
    }
}
