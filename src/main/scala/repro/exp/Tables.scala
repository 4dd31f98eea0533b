package repro.exp

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import repro.baselines.{DevkitRun, SkyRun, VivaRun}
import repro.exp.SystemsExperiment.{EvaRow, OtifRow}

/** The evaluation tables: one `Table` per file under bench/results/, which
  * both its bench suite and its job render through. Titles, headers and
  * cell formatting live here only.
  */
object Tables {

  def fmt(x: Double): String =
    if (x.isInfinity) "inf"
    else if (x == x.toLong.toDouble && math.abs(x) < 1e7) x.toLong.toString
    else if (math.abs(x) >= 100) f"$x%.1f"
    else f"$x%.3f"

  private def pct(x: Double): String = f"${x * 100}%.1f%%"

  /** Render a markdown table. */
  def markdown(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb ++= s"\n### $title\n\n"
    sb ++= header.mkString("| ", " | ", " |\n")
    sb ++= header.map(_ => "---").mkString("| ", " | ", " |\n")
    rows.foreach(r => sb ++= r.mkString("| ", " | ", " |\n"))
    sb.result()
  }

  /** Print to stdout and persist under bench/results/. */
  private def emit(fileName: String, content: String): Unit = {
    println(content)
    val dir = Paths.get(sys.props.getOrElse("repro.results.dir", "bench/results"))
    Files.createDirectories(dir)
    Files.write(dir.resolve(fileName), content.getBytes(StandardCharsets.UTF_8))
  }

  /** One results file: its title, its header, and the cells of an
    * experiment's rows.
    */
  final class Table[R](val file: String, title: String, header: Seq[String])(cells: Seq[R] => Seq[Seq[String]]) {
    def render(rows: Seq[R]): String = markdown(title, header, cells(rows))
    def emit(rows: Seq[R]): Unit     = Tables.emit(file, render(rows))
  }

  val queries = new Table[QueryRow]("table1_queries.md",
    "Table 1: evaluation queries, end-to-end (modeled runtime = calibrated cost model; wall = this Spark run)",
    Seq("query", "description", "matching rows", "snippets", "modeled s", "wall s"))(_.map(r =>
      Seq(r.query, r.description, r.matches.toString, r.snippets.toString, fmt(r.modeledS), fmt(r.wallS))))

  val eva = new Table[EvaRow]("table2_eva.md",
    "EVA vs Spatialyze (paper: 2-7.3x faster on Q5-Q7, comparable on Q8)",
    Seq("query", "EVA s", "Spatialyze s", "speedup x"))(_.map(r =>
      Seq(r.query, fmt(r.evaS), fmt(r.spatialyzeS), fmt(r.speedup))))

  val viva = new Table[VivaRun]("table2_viva.md",
    "VIVA vs Spatialyze on Q9 (paper: 1.68x on Jackson, 6x on nuScenes)",
    Seq("dataset", "VIVA s", "Spatialyze s", "speedup x"))(_.map(r =>
      Seq(r.dataset, fmt(r.vivaMs / 1000.0), fmt(r.spatialyzeMs / 1000.0), fmt(r.speedup))))

  val devkit = new Table[DevkitRun]("table2_devkit.md",
    "nuScenes devkit vs Query Engine (paper: 117-716x, Q4 OOM)",
    Seq("query", "devkit s", "Spatialyze s", "candidate rows devkit", "candidate rows engine", "speedup x"))(_.map(r =>
      Seq(r.query, if (r.oom) "OOM" else fmt(r.devkitMs / 1000.0), fmt(r.spatialyzeMs / 1000.0),
          fmt(r.devkitRows), r.spatialyzeRows.toString, if (r.oom) "OOM" else fmt(r.speedup))))

  val otif = new Table[OtifRow]("table2_otif.md",
    "OTIF vs Spatialyze tracking throughput (paper: 17.3 fps vs 18.3-39.5 fps + 61m37s training)",
    Seq("OTIF fps", "OTIF training min", "Spatialyze fps min (Q1-Q4)", "Spatialyze fps max (Q1-Q4)"))(_.map(r =>
      Seq(fmt(r.otifFps), fmt(r.otifTrainMin), fmt(r.spatialyzeFpsMin), fmt(r.spatialyzeFpsMax))))

  val sky = new Table[SkyRun]("table2_sky.md",
    "SkyQuery vs Spatialyze (paper: 5.15 fps vs 6.08 fps = 1.18x, RVP only)",
    Seq("SkyQuery fps", "Spatialyze fps", "speedup x", "frames pruned"))(_.map(r =>
      Seq(fmt(r.skyQueryFps), fmt(r.spatialyzeFps), fmt(r.speedup), pct(r.prunedFraction))))

  val ablationRuntime = new Table[AblationRow]("table3_ablation_runtime.md",
    "Ablation: video-processing runtime per 20 s video " +
      "(paper: SB=34 s workflow; S6 2.5-5.3x faster; RVP prunes 21.5%/3.8%; OTP prunes 36.5%/86.3%)",
    Seq("query", "setup", "s/video", "speedup x", "frames pruned", "dets pruned"))(_.map(r =>
      Seq(r.query, r.setup, fmt(r.videoMsPerVideo / 1000.0), fmt(r.speedup),
          pct(r.prunedFrames), pct(r.prunedDets))))

  /** AssA of every optimized setup; SB is the reference, so it has no row. */
  val ablationAccuracy = new Table[AblationRow]("table4_ablation_accuracy.md",
    "Ablation: AssA vs SB (paper: S1 95.3-99.6%, S2 94.7-97.5%, S5 ~93.4% avg, S6 ~84.5% avg)",
    Seq("query", "setup", "AssA"))(_.filter(_.setup != "SB").map(r => Seq(r.query, r.setup, pct(r.assA))))

  val skipDistance = new Table[SkipRow]("table5_skip_distance.md",
    "Exit Frame Sampler skips (paper: ratio falls with skip; ~28% runtime at skip 13; " +
      "avg skip 3.6 -> 39% runtime; accuracy degrades past ~13)",
    Seq("skip", "gaps", "F1", "runtime ratio"))(_.map(r =>
      Seq(r.skip.toString, r.gaps.toString, pct(r.f1), fmt(r.runtimeRatio))))
}
