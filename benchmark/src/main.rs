fn main() {
    std::process::exit(greem_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
