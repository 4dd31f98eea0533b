package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable

import org.apache.spark.sql.SparkSession
import repro.exp.{Dataset, Scenarios}

/** Wall-time benchmark of build–filter–observe workflows.
  *
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *       [--t0-ms <epoch ms> --t0-cpu <the cpu line of /proc/stat then>]
  *   --pin <from>-<to>     print reference lines for a range of world seeds
  *
  * `--seed` may be any integer. It picks one of `Workloads.WorldSeeds`
  * pinned worlds (the seed modulo their number), so every seed has a
  * reference to check against and the same seed gives the same inputs.
  *
  * One analyst (a closed loop with one client) submits the workload's
  * workflows one after another to a local[*] Spark session configured as
  * the repository's test and bench suites configure theirs. With
  * --trace 0 the run reports the end-to-end metrics; with --trace 1 a
  * separate run reports per-layer metrics from spans and Spark job
  * groups around each layer call. The last line of stdout is the result.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        t0Ms: Long, t0Cpu: CpuTicks, pin: Option[(Long, Long)])

  private def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace", "t0-ms", "t0-cpu", "pin")
    require(args.length % 2 == 0 && unknown.isEmpty, s"bad arguments: ${args.mkString(" ")}")
    Opts(
      workload = kv.getOrElse("workload", "tracking-mix"),
      seed     = Workloads.worldSeed(BigInt(kv.getOrElse("seed", "7"))),
      seconds  = kv.getOrElse("seconds", "40").toInt,
      trace    = kv.getOrElse("trace", "0") == "1",
      t0Ms     = kv.get("t0-ms").map(_.toLong).getOrElse(ManagementFactory.getRuntimeMXBean.getStartTime),
      t0Cpu    = kv.get("t0-cpu").map(CpuTicks.parse).getOrElse(CpuTicks.now()),
      pin      = kv.get("pin").map { r => val Array(a, b) = r.split("-"); (a.toLong, b.toLong) })
  }

  /** Session settings of the repository's SparkSpec.shared. */
  def session(master: String, dir: Path): SparkSession = {
    val s = SparkSession.builder
      .master(master)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", dir.resolve("warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(args: Array[String]): Unit = {
    val code =
      try run(parse(args))
      catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      }
    System.out.flush()
    sys.exit(code)
  }

  private def run(o: Opts): Int = {
    val dir     = Paths.get(".perfbench").toAbsolutePath
    Files.createDirectories(dir)
    val refFile = Paths.get("perfbench", "references.tsv")
    val refs    = References.load(refFile)
    o.pin match {
      case Some((a, b)) => pin(a to b, dir); 0
      case None =>
        val wl      = Workloads.byName(o.workload)
        val missing = wl.steps.filterNot(s => refs.contains((o.seed, s.key)))
        if (missing.nonEmpty) {
          System.err.println(s"FAIL: $refFile has no reference for world seed ${o.seed} " +
            s"(${missing.map(_.key).mkString(", ")}); pin it with --pin ${o.seed}-${o.seed}")
          return 3
        }
        val ref = wl.steps.map(s => s -> refs((o.seed, s.key))).toMap
        if (o.trace) Traced.run(o, wl, ref, dir) else untraced(o, wl, ref, dir)
    }
  }

  /** Builds the world: input generation and caching. */
  def buildWorld(spark: SparkSession, seed: Long): (Dataset, Double) = {
    val t  = System.nanoTime()
    val ds = Scenarios.nuscenes(spark, Workloads.Scenes, seed)
    (ds, (System.nanoTime() - t) / 1e6)
  }

  private def pin(seeds: Seq[Long], dir: Path): Unit = {
    val spark = session("local[*]", dir)
    val steps = Workloads.all.flatMap(_.steps).distinct
    println("# seed\tstep\trows\tdigest\tframesTotal,framesAfterRvp,detections,detsAfterOtp," +
      "depthFrames,geomDets,trackerFrames,trackerDets,trackerPairOps,queryRowsExamined")
    seeds.foreach { seed =>
      val (ds, _) = buildWorld(spark, seed)
      val runner  = new Runner(spark, ds, dir)
      steps.foreach { s =>
        val (out, _) = runner.observe(s)
        println(Reference(seed, s.key, out.rows, out.digest, out.stats).line)
      }
      // The program leaves cached blocks behind; drop them between seeds.
      spark.catalog.clearCache()
      spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist())
    }
    spark.stop()
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Prints one metric per line, then the result object as the last line. */
  def report(correct: Boolean, attempted: Int, failed: Int,
             metrics: Seq[(String, Double, String)]): Unit = {
    metrics.foreach { case (n, v, u) => println(f"  $n%-32s $v%14.4f $u") }
    val m = mutable.LinkedHashMap.empty[String, Any]
    metrics.foreach { case (n, v, u) => m(n) = mutable.LinkedHashMap("value" -> v, "unit" -> u) }
    println(Json.render(mutable.LinkedHashMap(
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed, "metrics" -> m)))
  }

  def check(step: Step, out: Outcome, ref: Reference, how: String): Boolean = {
    val ok = out.matches(ref)
    if (!ok) System.err.println(s"MISMATCH ${step.key} ($how): got rows=${out.rows} " +
      s"digest=${out.digest} stats=${out.stats}; want rows=${ref.rows} digest=${ref.digest} stats=${ref.stats}")
    ok
  }

  private def untraced(o: Opts, wl: Workload, ref: Map[Step, Reference], dir: Path): Int = {
    val spark   = session("local[*]", dir)
    val (ds, _) = buildWorld(spark, o.seed)
    val runner  = new Runner(spark, ds, dir)
    val setup   = Timing((System.currentTimeMillis() - o.t0Ms).toDouble, o.t0Cpu.stealShare(CpuTicks.now()))
    val n       = wl.workflows(o.seconds)
    val lat     = mutable.ArrayBuffer.empty[Double]
    var frames  = 0L
    var failed  = 0
    println(f"setup: wall ${setup.ms / 1000.0}%.3f s, steal ${setup.stealShare}%.3f")
    println(s"${wl.name}: world seed ${o.seed}, ${Workloads.Scenes} scenes, $n workflows, " +
      s"master ${spark.sparkContext.master} (${spark.sparkContext.defaultParallelism} cores)")
    for (i <- 0 until n) {
      val step = wl.steps(i % wl.steps.size)
      try {
        val (out, t) = runner.observe(step)
        lat += t.netMs / 1000.0
        frames += out.framesIn
        if (!check(step, out, ref(step), "observe")) failed += 1
        println(f"  wf $i%3d ${step.key}%-20s wall ${t.ms / 1000.0}%8.3f s, steal ${t.stealShare}%.3f, " +
          f"net ${t.netMs / 1000.0}%8.3f s, rows=${out.rows}")
      } catch {
        case e: Exception =>
          failed += 1
          System.err.println(s"FAILED ${step.key}: $e")
      }
    }
    val cacheMb = runner.sessionState().cacheMb
    spark.stop()
    report(failed == 0, n, failed, Seq(
      ("setup_s", setup.netMs / 1000.0, "s"),
      ("workflow_s_p50", median(lat.toSeq), "s"),
      ("workflow_s_max", if (lat.isEmpty) 0.0 else lat.max, "s"),
      ("video_fps", if (lat.isEmpty) 0.0 else frames / lat.sum, "frames/s"),
      ("ok_frac", (n - failed).toDouble / n, "ratio"),
      ("cache_mb_end", cacheMb, "MB")))
    0
  }

  def writeFile(p: Path, s: String): Unit = Files.write(p, s.getBytes(StandardCharsets.UTF_8))
}
