//! DSEARCH demo: sensitive database search, end to end.
//!
//! Builds a synthetic protein database with a planted homologous family
//! (mutated copies of the query), writes/parses it through the FASTA
//! layer, configures DSEARCH from the paper's "straightforward
//! configuration file" format, runs the distributed search on loopback
//! TCP donors (`run_tcp`), and prints the hit report with alignments of the
//! top hits. Asserts the distributed hit list equals the sequential
//! reference.
//!
//! Run with: `cargo run --release --example dsearch_demo`

use biodist::align::sw_align;
use biodist::bioseq::synth::{random_sequence, DbSpec, FamilySpec, SyntheticDb};
use biodist::bioseq::{parse_fasta, write_fasta, Alphabet};
use biodist::core::{run_tcp, SchedulerConfig, Server};
use biodist::dsearch::{build_problem, search_sequential, DsearchConfig, SearchOutput};

fn main() {
    // --- inputs ---------------------------------------------------
    let query = random_sequence(Alphabet::Protein, "query1", 180, 42);
    let family = FamilySpec {
        copies: 4,
        substitution_rate: 0.15,
        indel_rate: 0.02,
    };
    let db =
        SyntheticDb::generate_with_family(&DbSpec::protein_demo(300, 200), &query, &family, 43);
    println!(
        "database: {} sequences, {} residues ({} planted homologs of {})",
        db.sequences.len(),
        db.total_residues(),
        db.planted_ids.len(),
        query.id
    );

    // Round-trip the database through FASTA, as the real tool would.
    let fasta_text = write_fasta(&db.sequences, 70);
    let database = parse_fasta(&fasta_text, Alphabet::Protein).expect("valid FASTA");
    assert_eq!(database, db.sequences);

    // --- configuration file (paper §3.1) ---------------------------
    let config = DsearchConfig::parse(
        "algorithm  = smith-waterman\n\
         alphabet   = protein\n\
         matrix     = blosum62\n\
         gap_open   = 11\n\
         gap_extend = 1\n\
         top_hits   = 10\n",
    )
    .expect("valid configuration");

    // --- distributed search ----------------------------------------
    let expected = search_sequential(&database, std::slice::from_ref(&query), &config);
    let mut server = Server::new(SchedulerConfig {
        target_unit_secs: 0.002,
        prior_ops_per_sec: 1e8,
        ..Default::default()
    });
    let pid = server.submit(build_problem(
        database.clone(),
        vec![query.clone()],
        &config,
    ));
    let (mut server, elapsed) = run_tcp(server, 6);
    let out = server
        .take_output(pid)
        .expect("complete")
        .into_inner::<SearchOutput>();
    assert_eq!(out.hits, expected, "distributed == sequential");
    println!(
        "search done in {elapsed:.2} s wall clock over {} units\n",
        server.stats(pid).completed_units
    );

    // --- report -----------------------------------------------------
    println!("top hits for {}:", query.id);
    let hits = &out.hits[&query.id];
    for (rank, hit) in hits.iter().enumerate() {
        let planted = if db.planted_ids.contains(&hit.db_id) {
            "  <- planted homolog"
        } else {
            ""
        };
        println!(
            "  {:>2}. {:<10} score {:>5}{planted}",
            rank + 1,
            hit.db_id,
            hit.score
        );
    }

    // Show the alignment of the best hit.
    let best = &hits[0];
    let subject = database
        .iter()
        .find(|s| s.id == best.db_id)
        .expect("hit subject");
    let aln = sw_align(&query, subject, &config.scheme);
    println!(
        "\nbest alignment ({} vs {}, score {}, identity {:.0}%):",
        query.id,
        subject.id,
        aln.score,
        aln.identity(&query, subject) * 100.0
    );
    for line in aln.render(&query, subject).lines() {
        println!("  {line}");
    }

    // All planted homologs must rank above every background sequence.
    let top: Vec<&str> = hits[..db.planted_ids.len()]
        .iter()
        .map(|h| h.db_id.as_str())
        .collect();
    for id in &db.planted_ids {
        assert!(
            top.contains(&id.as_str()),
            "sensitivity: {id} must be a top hit"
        );
    }
    println!(
        "\nall {} planted homologs recovered as top hits ✓",
        db.planted_ids.len()
    );
}
