package perfbench

import java.nio.file.{Files, Path}

import scala.jdk.CollectionConverters._

/** The pinned result of one workflow for one seed. */
final case class Reference(seed: Long, key: String, rows: Long, digest: String, stats: String) {
  def line: String = s"$seed\t$key\t$rows\t$digest\t$stats"
}

/** Reference results pinned from the program as it was when the benchmark
  * was written (`references.tsv`: seed, step key, rows, digest, RunStats
  * unit counts). A workflow whose outcome differs counts as failed.
  */
object References {
  def load(file: Path): Map[(Long, String), Reference] =
    Files.readAllLines(file).asScala.iterator
      .filterNot(l => l.isBlank || l.startsWith("#"))
      .map { l =>
        val f = l.split("\t")
        val r = Reference(f(0).toLong, f(1), f(2).toLong, f(3), f(4))
        (r.seed, r.key) -> r
      }.toMap
}
